"""Micro-timings of the two innermost kernels, in a fresh interpreter.

Usage: python3 perfbench/kernels.py SECONDS

Times ``maps.step_with_winding`` on the golden-tuned pq map and
``numerics.to_circle`` on lift values spread over a few periods. The two
kernels alternate in rounds of about SECONDS/10 each, so a slow spell of
the machine hits both; the median round is reported in ns per call.
Prints one JSON object.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROUNDS = 5


def _step_round(m, step, n):
    x, w = 0.05, 0
    t0 = time.perf_counter_ns()
    for _ in range(n):
        x, w = step(m, x, w)
    return (time.perf_counter_ns() - t0) / n, x + w


def _to_circle_round(to_circle, values):
    t0 = time.perf_counter_ns()
    acc = 0.0
    for v in values:
        acc += to_circle(v)
    return (time.perf_counter_ns() - t0) / len(values), acc


def main(argv):
    seconds = float(argv[0]) if argv else 4.0
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from circlebreak.maps import make_pq_two_break, step_with_winding
    from circlebreak.numerics import to_circle

    with open(os.path.join(ROOT, "configs", "partition_pq_golden.json")) as fh:
        spec = json.load(fh)["map"]
    m = make_pq_two_break(
        spec["a"], spec["c"], spec["sigma_a"], spec["sigma_c"], spec["translation"]
    )
    values = [i * 0.6180339887498949 - 3.0 for i in range(10_000)]

    # Size each round from a short probe so a round lasts about seconds/10.
    per_round_ns = seconds * 1e9 / (2 * ROUNDS)
    step_probe, _ = _step_round(m, step_with_winding, 20_000)
    circle_probe, _ = _to_circle_round(to_circle, values)
    n_steps = max(10_000, int(per_round_ns / step_probe))
    reps = max(1, int(per_round_ns / (circle_probe * len(values))))

    step_ns, circle_ns = [], []
    for _ in range(ROUNDS):
        ns, _ = _step_round(m, step_with_winding, n_steps)
        step_ns.append(ns)
        ns = statistics.fmean(
            _to_circle_round(to_circle, values)[0] for _ in range(reps)
        )
        circle_ns.append(ns)
    print(json.dumps({
        "maps.step_ns": statistics.median(step_ns),
        "numerics.to_circle_ns": statistics.median(circle_ns),
        "steps_per_round": n_steps,
        "to_circle_calls_per_round": reps * len(values),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
