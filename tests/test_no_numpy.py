"""The command line loads no module whose import outweighs its use.

Every CLI run is a fresh interpreter that pays for each import.  Importing
numpy costs more than most commands' own work, and ``dataclasses`` (which
loads ``inspect``) costs its import plus the generated methods of every
class it decorates.  The Denjoy samples fan out over the CPUs with
``os.fork``, a pipe and ``marshal`` alone, and a child is killed by
SIGKILL's fixed number, so none of ``multiprocessing``,
``concurrent.futures``, ``signal`` (which builds enums on import) and
``subprocess`` has any use.  No module under ``circlebreak``
may load any of these, at import time or from inside a command.  A fresh
interpreter imports the CLI, runs each of the six commands on a bundled
config (``partition`` with Denjoy samples) and reports which of them
were loaded after each step.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

HEAVY = (
    "numpy",
    "dataclasses",
    "inspect",
    "multiprocessing",
    "concurrent.futures",
    "signal",
    "subprocess",
)

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
heavy = sys.argv[1].split(",")
def loaded():
    return ",".join(m for m in heavy if m in sys.modules) or "none"
import circlebreak.cli as cli
print("heavy-check import", loaded())
configs, out = sys.argv[2], sys.argv[3]
for command in sys.argv[4:]:
    command, config = command.split(":")
    code = cli.main(
        [command, "--config", os.path.join(configs, config),
         "--out", os.path.join(out, command)]
    )
    print("heavy-check", command, code, loaded())
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
            ",".join(HEAVY),
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
        if line.startswith("heavy-check ")
    ]
    expected = ["import none"] + [f"{command} 0 none" for command, _ in RUNS]
    assert lines == expected, proc.stdout
