"""The command line runs on the standard library alone.

Importing numpy costs more than most commands' own work, so no module
under ``circlebreak`` may import it.  A fresh interpreter imports the
CLI, runs each of the six commands on a bundled config and reports
whether numpy was loaded after each step.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RUNS = [
    ("rotnum", "rotnum_golden.json"),
    ("tune", "tune_pq_golden.json"),
    ("partition", "partition_pq_golden.json"),
    ("measure", "measure_pq_golden.json"),
    ("distortion", "distortion_pq.json"),
    ("singularity", "pq_main_short.json"),
]

SCRIPT = """
import os, sys
import circlebreak.cli as cli
print("numpy-check import", "numpy" in sys.modules)
configs, out = sys.argv[1], sys.argv[2]
for command in sys.argv[3:]:
    command, config = command.split(":")
    code = cli.main(
        [command, "--config", os.path.join(configs, config),
         "--out", os.path.join(out, command)]
    )
    print("numpy-check", command, code, "numpy" in sys.modules)
"""


def test_no_command_imports_numpy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            SCRIPT,
            os.path.join(ROOT, "configs"),
            str(tmp_path),
            *(f"{command}:{config}" for command, config in RUNS),
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # the commands print the paths they write; the checks are tagged
    lines = [
        line.split(" ", 1)[1]
        for line in proc.stdout.splitlines()
        if line.startswith("numpy-check ")
    ]
    expected = ["import False"] + [f"{command} 0 False" for command, _ in RUNS]
    assert lines == expected, proc.stdout
