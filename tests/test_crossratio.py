import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circlebreak.crossratio import (
    Quadruple,
    calibrate_k1,
    chain_points,
    cross_ratio,
    distortion,
    distortion_chain,
    f_func,
    g_func,
    image_quadruple,
    lift_into,
    normalized_coords,
    pl_frame_distortion,
    single_break_closed_form,
    smooth_distortion_bound,
)
from circlebreak.errors import BreakNotInStatedInterval, DegenerateQuadruple
from circlebreak.maps import (
    abs_d2f_integral,
    make_pl_two_break,
    make_pq_two_break,
    map_stats,
)
from circlebreak.partition import build_partition

from conftest import cell_interval


def test_cross_ratio_equally_spaced():
    assert cross_ratio(Quadruple(0.0, 1.0, 2.0, 3.0)) == 0.25


positive_gaps = st.tuples(
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=1e-6, max_value=10.0),
)


@given(positive_gaps)
def test_cross_ratio_in_unit_interval(gaps):
    q = Quadruple.from_gaps(0.0, *gaps)
    assert 0.0 < cross_ratio(q) < 1.0


def test_pl_break_quadruple_closed_form():
    # Lift with slope 2 left of the origin, 1 right of it: jump ratio 2.
    frame = lambda x: 2.0 * x if x <= 0 else x
    q = Quadruple(-1.0, 0.0, 1.0, 2.0)
    d = distortion(q, frame)
    assert d == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert d == pytest.approx(g_func(1.0, 2.0), abs=1e-12)


def test_f_collapses_at_t_one():
    rng = random.Random(4)
    for _ in range(100):
        x = math.exp(rng.uniform(-6, 6))
        sigma = math.exp(rng.uniform(-2, 2))
        assert abs(f_func(x, 1.0, sigma) - 1.0) < 1e-14


def test_f_at_t_zero_is_g():
    rng = random.Random(9)
    for _ in range(50):
        x = math.exp(rng.uniform(-4, 4))
        sigma = math.exp(rng.uniform(-2, 2))
        assert f_func(x, 0.0, sigma) == g_func(x, sigma)


def test_affine_invariance():
    # Gaps of comparable size keep the image differences well conditioned;
    # the invariance itself is exact.
    rng = random.Random(12)
    for _ in range(100):
        a = math.exp(rng.uniform(-2, 2))
        b = rng.uniform(-2, 2)
        q = Quadruple.from_gaps(
            rng.uniform(-1, 1), *(rng.uniform(0.1, 1.0) for _ in range(3))
        )
        assert abs(distortion(q, lambda x: a * x + b) - 1.0) < 1e-13


def test_telescoping_composition(pq_map, pl_map):
    from circlebreak.maps import evaluate

    h = lambda x: evaluate(pq_map, x)
    g = lambda x: evaluate(pl_map, x)
    rng = random.Random(3)
    for _ in range(30):
        q = Quadruple.from_gaps(
            rng.random(), *(1e-3 * (0.2 + rng.random()) for _ in range(3))
        )
        lhs = distortion(q, lambda x: g(h(x)))
        step = distortion(q, h)
        rhs = distortion(_image_under(q, h), g) * step
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _image_under(q, fn):
    return Quadruple(*(fn(z) for z in q))


def test_chain_matches_direct(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 6)
    gen = cell_interval(part, 0)
    third = gen.length / 3
    q = Quadruple.from_gaps(gen.left, third, third, third)
    res = distortion_chain(q, pq_map, part.q_n)
    assert res.steps == part.q_n
    assert len(res.quadruples) == part.q_n + 1
    assert res.total == pytest.approx(res.direct, rel=1e-10)
    assert all(f > 0 for f in res.factors)


def test_chain_rejects_wrapping_hull(pq_map):
    with pytest.raises(DegenerateQuadruple):
        chain_points(pq_map, (0.0, 0.4, 0.8, 1.2), 3)


def test_degenerate_quadruples_rejected():
    with pytest.raises(DegenerateQuadruple):
        Quadruple(0.0, 0.0, 1.0, 2.0)
    with pytest.raises(DegenerateQuadruple):
        Quadruple(0.0, 2.0, 1.0, 3.0)


def test_normalized_coords():
    q = Quadruple(0.0, 1.0, 3.0, 4.0)
    nc = normalized_coords(q)
    assert nc.xi == 2.0 and nc.eta == 2.0 and nc.z is None
    nc = normalized_coords(q, cbar=0.25)
    assert nc.z == pytest.approx(0.75)
    nc = normalized_coords(q, cbar=3.5)
    assert nc.theta == pytest.approx(0.5)
    with pytest.raises(BreakNotInStatedInterval):
        normalized_coords(q, cbar=2.0)


def test_lift_into():
    assert lift_into(0.2, 5.3) == pytest.approx(6.2, abs=1e-12)
    assert lift_into(0.2, 0.1) == pytest.approx(0.2, abs=1e-15)


def test_single_break_closed_form_pl_exact():
    m = make_pl_two_break(0.3, 0.7, 2.0)
    brk = m.breaks[0]
    for t in (0.0, 0.3, 0.9):
        z2 = brk.location + t * 0.01
        q = Quadruple(z2 - 0.01, z2, z2 + 0.012, z2 + 0.02)
        res = single_break_closed_form(q, brk, m)
        assert res.residual_bound == 0.0  # curvature-free family
        assert res.actual == pytest.approx(res.predicted, abs=1e-12)
        # the break sits in [z1, z2], at z = t
        assert res.predicted == pytest.approx(
            f_func(normalized_coords(q).xi, t, brk.sigma), rel=1e-12
        )


def test_pl_frame_matches_the_closed_forms():
    rng = random.Random(11)
    for _ in range(50):
        alpha, beta, gamma = (math.exp(rng.uniform(-3, 3)) for _ in range(3))
        sigma = math.exp(rng.uniform(-2, 2))
        q = Quadruple.from_gaps(rng.uniform(-1, 1), alpha, beta, gamma)
        nc = normalized_coords(q)
        assert pl_frame_distortion(q, q.z2, sigma) == pytest.approx(
            g_func(nc.xi, sigma), rel=1e-12
        )
        t = rng.random()
        assert pl_frame_distortion(q, q.z2 - t * alpha, sigma) == pytest.approx(
            f_func(nc.xi, t, sigma), rel=1e-12
        )
        assert pl_frame_distortion(q, q.z3 + t * gamma, sigma) == pytest.approx(
            f_func(nc.eta, t, 1 / sigma), rel=1e-12
        )


def test_pl_frame_is_exact_for_pl_maps():
    # one break in the hull, in each of the three gaps
    m = make_pl_two_break(0.3, 0.7, 2.0)
    for brk in m.breaks:
        for shift in (0.004, 0.01, 0.013, 0.019):
            z1 = brk.location - shift
            q = Quadruple(z1, z1 + 0.006, z1 + 0.015, z1 + 0.02)
            assert pl_frame_distortion(q, brk.location, brk.sigma) == pytest.approx(
                distortion(q, m), rel=1e-12
            )


def test_pl_frame_refuses_a_break_outside_the_hull():
    q = Quadruple(0.0, 1.0, 2.0, 3.0)
    with pytest.raises(BreakNotInStatedInterval):
        pl_frame_distortion(q, 3.5, 2.0)


def test_single_break_closed_form_right_side():
    m = make_pl_two_break(0.3, 0.7, 2.0)
    brk = m.breaks[1]
    z3 = brk.location - 0.004
    q = Quadruple(z3 - 0.02, z3 - 0.01, z3, z3 + 0.01)
    res = single_break_closed_form(q, brk, m)
    # the break sits in [z3, z4], at theta = 0.4
    assert res.predicted == pytest.approx(
        f_func(normalized_coords(q).eta, 0.4, 1 / brk.sigma), rel=1e-12
    )
    assert res.actual == pytest.approx(res.predicted, abs=1e-12)


def test_single_break_closed_form_pq_bounded(pq_map):
    brk = pq_map.breaks[0]
    q = Quadruple(brk.location - 0.005, brk.location, brk.location + 0.006,
                  brk.location + 0.011)
    res = single_break_closed_form(q, brk, pq_map)
    assert res.residual_bound > 0
    assert abs(res.actual - res.predicted) <= res.residual_bound + 1e-12


def test_single_break_rejects_second_break(pq_map):
    a, c = pq_map.breaks[0].location, pq_map.breaks[1].location
    q = Quadruple(a - 0.01, a, (a + c) / 2, c + 0.01)
    with pytest.raises(BreakNotInStatedInterval):
        single_break_closed_form(q, pq_map.breaks[0], pq_map)


def test_single_break_rejects_a_middle_gap_break():
    m = make_pl_two_break(0.3, 0.7, 2.0)
    brk = m.breaks[0]
    q = Quadruple.from_gaps(brk.location - 0.01, 0.005, 0.01, 0.005)
    with pytest.raises(BreakNotInStatedInterval):
        single_break_closed_form(q, brk, m)


def test_calibrations():
    assert calibrate_k1(make_pl_two_break(0.3, 0.7, 2.0)) == 0.0
    assert calibrate_k1(make_pq_two_break(0.2, 0.6, 2.0, 0.8)) > 0.0


def test_smooth_bound_scaling(pq_map):
    # Inside one smooth piece the bound is governed by the squared
    # curvature integral: each halving of the hull halves the integral
    # and quarters the bound.
    z1 = 0.25
    h = 0.08
    prev = None
    for _ in range(5):
        q = Quadruple.from_gaps(z1, h / 3, h / 3, h / 3)
        sb = smooth_distortion_bound(pq_map, q)
        assert abs(distortion(q, pq_map) - 1.0) <= sb.bound + 1e-14
        if prev is not None:
            prev_integral, prev_bound = prev
            assert sb.integral == pytest.approx(prev_integral / 2, rel=1e-9)
            assert sb.bound == pytest.approx(prev_bound / 4, rel=1e-9)
        prev = (sb.integral, sb.bound)
        h /= 2


def test_curvature_integral_additive(pq_map):
    total = abs_d2f_integral(pq_map, 0.21, 0.27)
    split = abs_d2f_integral(pq_map, 0.21, 0.24) + abs_d2f_integral(
        pq_map, 0.24, 0.27
    )
    assert total == pytest.approx(split, rel=1e-12)


def test_coordinate_stability_along_chain(pq_map, gcf):
    stats = map_stats(pq_map)
    part = build_partition(pq_map, gcf, 0.05, 7)
    gen = cell_interval(part, 0)
    third = gen.length / 3
    q = Quadruple.from_gaps(gen.left, third, third, third)
    track = chain_points(pq_map, q, part.q_n)
    xi0 = None
    for pts in track:
        a, b = pts[1] - pts[0], pts[2] - pts[1]
        xi = b / a
        if xi0 is None:
            xi0 = xi
        ratio = xi / xi0
        assert math.exp(-stats.v) - 1e-9 <= ratio <= math.exp(stats.v) + 1e-9


def test_image_quadruple_is_one_step(pq_map):
    q = Quadruple(0.24, 0.25, 0.26, 0.27)
    img = image_quadruple(q, pq_map)
    assert distortion(q, pq_map) == pytest.approx(
        cross_ratio(img) / cross_ratio(q), rel=1e-14
    )
