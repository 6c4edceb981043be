"""Each command runs only the layers it uses.

Every CLI run is a fresh interpreter that compiles each module it runs,
and that start-up outweighs the work of most bundled commands.
``circlebreak.cli`` registers the layers lazily: each is in
``sys.modules`` and on the package from the import on, as the benchmark's
trace launcher needs, but runs only when code first reads one of its
attributes.  Each case starts a fresh interpreter, imports the CLI, runs
at most one command on a bundled config and reports which modules have
run; ``type(module) is types.ModuleType`` tells that without loading one.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAYERS = {"maps", "rotation", "partition", "crossratio", "measure", "singularity"}
EAGER = {"cli", "errors", "numerics"}

SCRIPT = """
import sys, types
import circlebreak.cli as cli
if len(sys.argv) > 1:
    command, config, out = sys.argv[1:]
    code = cli.main([command, "--config", config, "--out", out])
    assert code == 0, code
names = [n for n in sys.modules if n.startswith("circlebreak.")]
ran = [n for n in names if type(sys.modules[n]) is types.ModuleType]
print("layers-check", ",".join(sorted(n.split(".")[1] for n in names)))
print("layers-check", ",".join(sorted(n.split(".")[1] for n in ran)))
print("layers-check", "statistics" in sys.modules)
"""


def _layers_run(tmp_path, *run):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    args = []
    if run:
        command, config = run
        args = [command, os.path.join(ROOT, "configs", config), str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the commands print the paths they write; the checks are tagged
    registered, ran, statistics = [
        line.split(" ", 1)[1]
        for line in proc.stdout.splitlines()
        if line.startswith("layers-check ")
    ]
    return set(registered.split(",")), set(ran.split(",")), statistics


def test_the_import_runs_no_layer(tmp_path):
    registered, ran, statistics = _layers_run(tmp_path)
    assert registered == LAYERS | EAGER
    assert ran == EAGER
    assert statistics == "False"


@pytest.mark.parametrize(
    "command, config, layers",
    [
        ("distortion", "distortion_pq.json", {"maps", "crossratio"}),
        ("partition", "partition_pq_golden.json", {"maps", "rotation", "partition"}),
        ("singularity", "pq_main_short.json", LAYERS - {"measure"}),
    ],
    ids=["distortion", "partition", "singularity"],
)
def test_a_command_runs_only_its_layers(tmp_path, command, config, layers):
    registered, ran, _ = _layers_run(tmp_path, command, config)
    assert registered == LAYERS | EAGER
    assert ran == EAGER | layers
