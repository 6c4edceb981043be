"""The traced benchmark pass on two bundled configs, end to end.

``perfbench/trace_launcher.py`` derives counters from the values the
wrapped functions return (``OrbitMeasure.n_points``,
``DynamicalPartition.elements``), which a name check alone cannot see.
These tests run the launcher in a subprocess, as the benchmark does, and
read the counters it writes.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _trace_counts(tmp_path, command, config):
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
    return json.loads(trace.read_text())["counts"]


def test_trace_counts_the_measure_orbit(tmp_path):
    counts = _trace_counts(tmp_path, "measure", "measure_pq_golden.json")
    assert counts["measure.orbit_points"] == 3000


def test_trace_counts_partition_cells(tmp_path):
    # n 8 with refinement and decay_n_max 10: one rank-10 build,
    # q_10 + q_9 = 89 + 55 cells
    counts = _trace_counts(tmp_path, "partition", "partition_pq_golden.json")
    assert counts["partition.cells"] == 144
