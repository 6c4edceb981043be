"""The benchmark's own output checks, run on the package's artifacts.

``perfbench/workloads.py`` reads the artifacts of each operation by key
and column name, so a renamed key would only fail the benchmark pass.
These tests import it as it stands, run its operations through
``cli.main`` in-process and apply its ``check`` and ``theory`` to the
outputs.
"""

import importlib.util
import json
import os
import sys

import pytest

from conftest import ROOT

from circlebreak.cli import main


def _workloads():
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # its dataclass resolves the module's annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


def _run_op(op, workdir):
    """One operation's CLI run into ``workdir``/out; its output directory."""
    os.makedirs(workdir)
    config = op.config
    if isinstance(config, dict):
        config = os.path.join(workdir, "config.json")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(op.config, fh)
    outdir = os.path.join(workdir, "out")
    os.makedirs(outdir)
    argv = [op.command, "--config", config, "--out", outdir, "--seed", str(op.seed)]
    assert main(argv) == 0, op.label
    return outdir


@pytest.mark.parametrize(
    "name, seed, seconds, labels, matches",
    [
        # pl_herman's breaks share one orbit, so theory says AC_BASELINE; the
        # report reads INCONCLUSIVE, as it has no AC verdict for a two-break
        # map yet (ROADMAP item 1b)
        (
            "experiments",
            1,
            0,
            ["pq_main", "pq_same_orbit", "pl_generic", "pl_herman", "rotation_baseline"],
            4,
        ),
        (
            "deep_partition",
            1,
            17,
            ["partition-n20", "partition-n21", "partition-n22", "distortion"],
            4,
        ),
    ],
)
def test_workload_outputs_pass_the_benchmark_checks(tmp_path, name, seed, seconds, labels, matches):
    ops = workloads.build(name, ROOT, seed, seconds)
    assert [op.label for op in ops] == labels
    got = 0
    for i, op in enumerate(ops):
        outdir = _run_op(op, str(tmp_path / f"{i:03d}-{op.label}"))
        assert op.check(outdir) == [], op.label
        got += sum(expected == seen for _, expected, seen in op.theory(outdir))
    assert got == matches
