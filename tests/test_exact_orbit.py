"""The float orbit of a PL map against its exact-rational replay.

A PL map read from its float segment table and translation is an exact
rational map, so its orbit can be replayed in ``Fraction`` arithmetic and
every float point measured against the exact one.  Backward orbits are
replayed likewise, inverting each segment with its linear root, and so
is the report's distortion chain, point by point.  These are the first
slices of the oracle of ROADMAP item 19.
"""

import json
from fractions import Fraction
from math import floor
from pathlib import Path

import pytest

from circlebreak.maps import iterate
from circlebreak.partition import build_partition
from circlebreak.rotation import ContinuedFraction
from circlebreak.singularity import (
    ExperimentConfig,
    break_preimages,
    build_experiment_map,
    regular_cover_triple,
)

from conftest import qn_chains

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

# Empirical, until item 19 derives a bound: on pl_generic's tuned map the
# float orbit of 0.05 is 1.4e-14 and 2.0e-14 from the exact one after 233
# and 610 steps, and at most 2.4e-14 and 3.9e-14 on the way there.  The
# error grows with the orbit: over 1597 steps it reaches 1.3e-13, so this
# tolerance holds for the orbit lengths tested here only (610 steps
# forward, 376 back).
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


def exact_backward_orbit(m, x0, n):
    """[x0, T^-1 x0, ..., T^-n x0] in Fraction arithmetic from m's segment
    table, each preimage put on its segment as ``maps.retreat`` puts it.
    The segments must be linear, as a PL map's are."""
    assert m.seg_curv == (0.0, 0.0)
    t = Fraction(m.translation)
    p0, p1 = Fraction(m.seg_pos[0]), Fraction(m.seg_pos[1])
    v0, v1 = Fraction(m.seg_val[0]), Fraction(m.seg_val[1])
    a0, a1 = Fraction(m.seg_d0[0]), Fraction(m.seg_d0[1])
    x = Fraction(x0)
    out = [x]
    for _ in range(n):
        # the value u = x - t - k lies in [v0, v0 + 1) for one integer k
        k = floor(x - t - v0)
        u = x - t - k
        y = (p0 + (u - v0) / a0 if u < v1 else p1 + (u - v1) / a1) + k
        x = y - floor(y)
        out.append(x)
    return out


def _tuned_experiment(name):
    cfg = ExperimentConfig(**json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    cf = ContinuedFraction.from_quotients(cfg.rho_quotients)
    m, _, _ = build_experiment_map(cfg, cf)
    return cfg, cf, m


def _circle_distance(x, y):
    d = x - y
    return abs(d - round(d))


def _exact_arc_holds(x, lo, hi):
    """Whether x lies on the closed ccw arc from lo to hi, all exact."""
    return (x - lo) % 1 <= (hi - lo) % 1


def test_float_orbit_stays_near_the_exact_one_on_pl_generic():
    cfg, _, m = _tuned_experiment("pl_generic")
    steps = 610  # q_14 of the golden mean
    floats = iterate(m, cfg.x0, steps)
    exact = exact_orbit(m, cfg.x0, steps)
    errors = [_circle_distance(Fraction(f), e) for f, e in zip(floats, exact)]
    assert len(errors) == steps + 1
    # rounding does move the float orbit, but by less than ORBIT_TOL
    assert 0 < max(errors) <= ORBIT_TOL


@pytest.mark.parametrize("name", ["pl_generic", "pl_herman"])
def test_break_preimages_stay_near_the_exact_ones(name):
    # at n_max 12 each table holds q_12 + q_11 = 377 entries; the float
    # entries were measured at most 1.6e-14 (pl_generic) and 5.5e-15
    # (pl_herman) from the exact ones
    cfg, cf, m = _tuned_experiment(name)
    assert cfg.n_max == 12
    deep = build_partition(m, cf, cfg.x0, cfg.n_max)
    for brk, floats in zip(m.breaks, break_preimages(m, deep)):
        exact = exact_backward_orbit(m, brk.location, len(floats) - 1)
        assert len(floats) == cf.q(12) + cf.q(11) == 377
        errors = [_circle_distance(Fraction(f), e) for f, e in zip(floats, exact)]
        assert 0 < max(errors) <= ORBIT_TOL


@pytest.mark.parametrize("name", ["pl_generic", "pl_herman"])
def test_report_chain_points_stay_near_the_exact_orbit(monkeypatch, name):
    # the chain _qn_row runs at ranks 5-12, its cover's four float points
    # pushed through q_n exact steps; each chain point lies on some turn,
    # and the exact point lifted onto that turn is within ORBIT_TOL of it.
    # Measured at most 3.8e-14 (pl_generic) and 2.9e-15 (pl_herman)
    cfg, cf, m = _tuned_experiment(name)
    runs = qn_chains(monkeypatch, m, cf, cfg.x0, range(5, 13))
    assert [steps for _, steps, _ in runs] == [cf.q(n) for n in range(5, 13)]
    for q, steps, res in runs:
        orbits = [exact_orbit(m, Fraction(z) % 1, steps) for z in q]
        errors = [
            _circle_distance(Fraction(z), orbit[k])
            for k, quad in enumerate(res.quadruples)
            for z, orbit in zip(quad, orbits)
        ]
        assert max(errors) <= ORBIT_TOL


@pytest.mark.parametrize("name", ["pl_generic", "pl_herman"])
def test_the_cover_reads_the_exact_cell_of_the_first_break(name):
    # at ranks 5-12 three indices agree: the orbit index of the exact cell
    # of xi_n that holds the first break, the first of its exact q_n
    # preimages in the exact window [x_{q_n}, x_{q_{n-1}}], and the float
    # cover's l_index
    cfg, cf, m = _tuned_experiment(name)
    deep = build_partition(m, cf, cfg.x0, cfg.n_max)
    tables = break_preimages(m, deep)
    a = Fraction(m.breaks[0].location)
    pts = exact_orbit(m, deep.x0, deep.q_n + deep.q_nm1 - 1)
    pre = exact_backward_orbit(m, a, deep.q_n - 1)
    for n in range(5, cfg.n_max + 1):
        q_n, q_nm1 = cf.q(n), cf.q(n - 1)
        # rank-(n-1) cells join i and i + q_{n-1}, rank-n cells j and
        # j + q_n; the later point is the right end at an even tag
        holding = [
            i
            for tag, count, step in ((n - 1, q_n, q_nm1), (n, q_nm1, q_n))
            for i in range(count)
            for lo, hi in [(i, i + step) if tag % 2 == 0 else (i + step, i)]
            if _exact_arc_holds(a, pts[lo], pts[hi])
        ]
        w_left, w_right = (pts[q_nm1], pts[q_n]) if n % 2 == 0 else (pts[q_n], pts[q_nm1])
        first_in = next(k for k in range(q_n) if _exact_arc_holds(pre[k], w_left, w_right))
        triple = regular_cover_triple(m, deep.coarsen(n), tables)
        assert holding == [first_in] == [triple.l_index], n
