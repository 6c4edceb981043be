"""The float orbit of a PL map against its exact-rational replay.

A PL map read from its float segment table and translation is an exact
rational map, so its orbit can be replayed in ``Fraction`` arithmetic and
every float point measured against the exact one.  This is the first
slice of the oracle of ROADMAP item 19.
"""

import json
from fractions import Fraction
from math import floor
from pathlib import Path

from circlebreak.maps import iterate
from circlebreak.rotation import ContinuedFraction
from circlebreak.singularity import ExperimentConfig, build_experiment_map

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Empirical, until item 19 derives a bound: on pl_generic's tuned map the
# float orbit of 0.05 is 1.4e-14 and 2.0e-14 from the exact one after 233
# and 610 steps, and at most 2.4e-14 and 3.9e-14 on the way there.  The
# error grows with the orbit: over 1597 steps it reaches 1.3e-13, so this
# tolerance holds for the 610 steps tested here only.
ORBIT_TOL = 1e-13


def exact_orbit(m, x0, n):
    """[x0, T x0, ..., T^n x0] in Fraction arithmetic from m's segment
    table, each point put on its segment as ``maps.advance`` puts it."""
    t = Fraction(m.translation)
    p0, p1 = Fraction(m.seg_pos[0]), Fraction(m.seg_pos[1])
    columns = (m.seg_pos, m.seg_val, m.seg_d0, m.seg_curv)
    segments = [tuple(Fraction(col[s]) for col in columns) for s in (0, 1)]
    x = Fraction(x0)
    out = [x]
    for _ in range(n):
        # left of p0, x sits one turn back in [p0, p0 + 1)
        u, j = (x + 1, -1) if x < p0 else (x, 0)
        pos, val, d0, curv = segments[0 if u < p1 else 1]
        du = u - pos
        y = val + du * (d0 + curv / 2 * du) + j + t
        x = y - floor(y)
        out.append(x)
    return out


def _circle_distance(x, y):
    d = x - y
    return abs(d - round(d))


def test_float_orbit_stays_near_the_exact_one_on_pl_generic():
    cfg = ExperimentConfig(**json.loads((CONFIG_DIR / "pl_generic.json").read_text()))
    cf = ContinuedFraction.from_quotients(cfg.rho_quotients)
    m, _, _ = build_experiment_map(cfg, cf)
    steps = 610  # q_14 of the golden mean
    floats = iterate(m, cfg.x0, steps)
    exact = exact_orbit(m, cfg.x0, steps)
    errors = [_circle_distance(Fraction(f), e) for f, e in zip(floats, exact)]
    assert len(errors) == steps + 1
    # rounding does move the float orbit, but by less than ORBIT_TOL
    assert 0 < max(errors) <= ORBIT_TOL
