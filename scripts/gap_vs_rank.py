#!/usr/bin/env python3
"""Print the q_n cross-ratio distortion gap by rank for three maps.

A quick console view of the separation the full experiments certify:
the two-break map with sigma_a*sigma_c != 1 keeps |Dist - 1| bounded
away from zero while the rigid rotation sits at rounding level.
"""

import sys

from circlebreak.maps import make_pq_two_break, make_rotation
from circlebreak.rotation import ContinuedFraction, tune_translation
from circlebreak.singularity import qn_distortion_experiment, solve_same_orbit

GOLDEN_CF = ContinuedFraction.from_quotients([1] * 30)


def main() -> int:
    n_range = range(5, 13)

    base = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    tuned = base.with_translation(
        tune_translation(base, GOLDEN_CF, tol=1e-10).translation
    )
    same, _ = solve_same_orbit("pq", 0.2, GOLDEN_CF, sigma_a=2.0, sigma_c=0.8)
    rot = make_rotation(GOLDEN_CF.value)

    print(f"{'n':>3} {'generic pq':>14} {'same-orbit pq':>14} {'rotation':>12}")
    rows = {
        "generic": qn_distortion_experiment(tuned, GOLDEN_CF, 0.05, n_range),
        "same": qn_distortion_experiment(same, GOLDEN_CF, 0.05, n_range),
        "rot": qn_distortion_experiment(rot, GOLDEN_CF, 0.05, n_range),
    }
    for a, b, c in zip(rows["generic"], rows["same"], rows["rot"]):
        print(f"{a.n:>3} {a.gap:>14.6e} {b.gap:>14.6e} {c.gap:>12.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
