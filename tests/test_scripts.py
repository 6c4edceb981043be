"""Smoke tests for the scripts in scripts/, which no command imports."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_gap_vs_rank_prints_every_rank():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "gap_vs_rank.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["n", "generic", "pq", "same-orbit", "pq", "rotation"]
    assert [int(r.split()[0]) for r in rows] == list(range(5, 13))
