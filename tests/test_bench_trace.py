"""The traced benchmark pass on three bundled configs, end to end.

``perfbench/trace_launcher.py`` derives counters from the values the
wrapped functions return (``OrbitMeasure.n_points``,
``DynamicalPartition.elements``), which a name check alone cannot see,
and wraps functions in layers that the CLI loads only on first use.
These tests run the launcher in a subprocess, as the benchmark does, and
read the calls and counters it writes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _trace(tmp_path, command, config):
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "perfbench", "trace_launcher.py"),
            str(trace),
            "--",
            command,
            "--config",
            os.path.join(ROOT, "configs", config),
            "--out",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text())


def test_trace_counts_the_measure_orbit(tmp_path):
    counts = _trace(tmp_path, "measure", "measure_pq_golden.json")["counts"]
    assert counts["measure.orbit_points"] == 3000


def test_trace_counts_partition_cells(tmp_path):
    # n 8 with refinement and decay_n_max 10: one rank-10 build,
    # q_10 + q_9 = 89 + 55 cells
    counts = _trace(tmp_path, "partition", "partition_pq_golden.json")["counts"]
    assert counts["partition.cells"] == 144


def test_trace_spans_the_singularity_layers(tmp_path):
    # ranks 5-9 of the golden pq map: one cover per rank, cut from one
    # rank-9 build of q_9 + q_8 = 55 + 34 cells
    trace = _trace(tmp_path, "singularity", "pq_main_short.json")
    assert trace["calls"]["singularity.cover"] == 5
    assert trace["counts"]["partition.cells"] == 89
