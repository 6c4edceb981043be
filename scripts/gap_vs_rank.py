#!/usr/bin/env python3
"""Print the q_n cross-ratio distortion gap by rank for three maps.

A quick console view of the separation the full experiments certify:
the two-break map with sigma_a*sigma_c != 1 keeps |Dist - 1| bounded
away from zero while the rigid rotation sits at rounding level.  The
gaps are the ``dist_qn_gap`` rows of the ``singularity`` reports of the
bundled configs, so they are the numbers under ``results/``.
"""

import json
import os
import sys

from circlebreak.singularity import ExperimentConfig, singularity_report

CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs")


def _gaps(name):
    with open(os.path.join(CONFIGS, name)) as fh:
        report = singularity_report(ExperimentConfig(**json.load(fh)))
    return [(row.n, row.dist_qn_gap) for row in report.rows]


def main() -> int:
    generic = _gaps("pq_main.json")
    same = _gaps("pq_same_orbit.json")
    rot = _gaps("rotation_baseline.json")

    print(f"{'n':>3} {'generic pq':>14} {'same-orbit pq':>14} {'rotation':>12}")
    for (n, a), (_, b), (_, c) in zip(generic, same, rot):
        print(f"{n:>3} {a:>14.6e} {b:>14.6e} {c:>12.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
