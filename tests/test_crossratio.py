import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import circlebreak.crossratio
from circlebreak.crossratio import (
    DistortionRow,
    Quadruple,
    U,
    calibrate_c1,
    calibrate_k1,
    chain_points,
    cross_ratio,
    distortion,
    distortion_chain,
    distortion_rounding,
    distortion_rows,
    f_func,
    image_quadruple,
    lift_into,
    normalized_coords,
    pl_frame_distortion,
    single_break_closed_form,
    smooth_distortion_bound,
)
from circlebreak.errors import (
    BreakNotInStatedInterval,
    CircleBreakError,
    DegenerateQuadruple,
    InvariantFailure,
    PrecisionBudgetExceeded,
)
from circlebreak.maps import (
    abs_d2f_integral,
    make_pl_two_break,
    make_pq_two_break,
    make_rotation,
    map_stats,
)
from circlebreak.partition import build_partition

from conftest import cell_interval, direct_distortion, quadruple_from_gaps


def test_cross_ratio_equally_spaced():
    assert cross_ratio(Quadruple(0.0, 1.0, 2.0, 3.0)) == 0.25


positive_gaps = st.tuples(
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=1e-6, max_value=10.0),
    st.floats(min_value=1e-6, max_value=10.0),
)


@given(positive_gaps)
def test_cross_ratio_in_unit_interval(gaps):
    q = quadruple_from_gaps(0.0, *gaps)
    assert 0.0 < cross_ratio(q) < 1.0


def test_pl_break_quadruple_closed_form():
    # Lift with slope 2 left of the origin, 1 right of it: jump ratio 2.
    frame = lambda x: 2.0 * x if x <= 0 else x
    q = Quadruple(-1.0, 0.0, 1.0, 2.0)
    d = _dist(q, frame)
    assert d == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert d == pytest.approx(f_func(1.0, 0.0, 2.0), abs=1e-12)


def test_f_collapses_at_t_one():
    rng = random.Random(4)
    for _ in range(100):
        x = math.exp(rng.uniform(-6, 6))
        sigma = math.exp(rng.uniform(-2, 2))
        assert abs(f_func(x, 1.0, sigma) - 1.0) < 1e-14


def test_f_at_t_zero_is_g():
    # F at offset 0 is the paper's G, sigma (1+x) / (sigma + x), bit for bit
    rng = random.Random(9)
    for _ in range(50):
        x = math.exp(rng.uniform(-4, 4))
        sigma = math.exp(rng.uniform(-2, 2))
        assert f_func(x, 0.0, sigma) == sigma * (1 + x) / (sigma + x)


def test_affine_invariance():
    # Gaps of comparable size keep the image differences well conditioned;
    # the invariance itself is exact.
    rng = random.Random(12)
    for _ in range(100):
        a = math.exp(rng.uniform(-2, 2))
        b = rng.uniform(-2, 2)
        q = quadruple_from_gaps(
            rng.uniform(-1, 1), *(rng.uniform(0.1, 1.0) for _ in range(3))
        )
        assert abs(_dist(q, lambda x: a * x + b) - 1.0) < 1e-13


def test_telescoping_composition(pq_map, pl_map):
    from circlebreak.maps import evaluate

    h = lambda x: evaluate(pq_map, x)
    g = lambda x: evaluate(pl_map, x)
    rng = random.Random(3)
    for _ in range(30):
        q = quadruple_from_gaps(
            rng.random(), *(1e-3 * (0.2 + rng.random()) for _ in range(3))
        )
        lhs = _dist(q, lambda x: g(h(x)))
        step = _dist(q, h)
        rhs = _dist(_image_under(q, h), g) * step
        assert lhs == pytest.approx(rhs, rel=1e-12)


def _image_under(q, fn):
    return Quadruple(*(fn(z) for z in q))


def _dist(q, fn):
    """Cr(fn z1..fn z4) / Cr(z1..z4) for a plain callable lift fn."""
    return cross_ratio(_image_under(q, fn)) / cross_ratio(q)


def test_chain_matches_direct(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 6)
    gen = cell_interval(part, 0)
    third = gen.length / 3
    q = quadruple_from_gaps(gen.left, third, third, third)
    res = distortion_chain(q, pq_map, part.q_n)
    assert len(res.factors) == part.q_n
    assert len(res.quadruples) == part.q_n + 1
    direct, _ = direct_distortion(q, pq_map, part.q_n)
    assert res.total == pytest.approx(direct, rel=1e-10)
    assert all(f > 0 for f in res.factors)


def test_chain_rejects_wrapping_hull(pq_map):
    with pytest.raises(DegenerateQuadruple, match="^tracked hull does not fit on one chart$"):
        chain_points(pq_map, (0.0, 0.4, 0.8, 1.2), 3)
    with pytest.raises(DegenerateQuadruple, match="^tracked points must be strictly increasing$"):
        chain_points(pq_map, (0.0, 0.4, 0.4, 0.8), 3)
    # slope 2 - 1e-16 on [0.25, 0.75]: the image of that whole segment
    # rounds to one full turn
    m = make_pl_two_break(0.25, 0.75, 1e16)
    with pytest.raises(DegenerateQuadruple, match="^hull wrapped the circle at step 1$"):
        chain_points(m, (0.25, 0.4, 0.6, 0.75), 1)


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


def test_closed_form_factors_refuse_arguments_outside_their_domain():
    for x in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match=f"^need x > 0, got {x!r}$"):
            f_func(x, 0.5, 2.0)
    for sigma in (0.0, -2.0, math.nan):
        with pytest.raises(ValueError, match=f"^need sigma > 0, got {sigma!r}$"):
            f_func(1.0, 0.5, sigma)
    for t in (-0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match=rf"^need t in \[0, 1\], got {t!r}$"):
            f_func(1.0, t, 2.0)


def test_single_break_closed_form_pl_exact():
    m = make_pl_two_break(0.3, 0.7, 2.0)
    brk = m.breaks[0]
    for t in (0.0, 0.3, 0.9):
        z2 = brk.location + t * 0.01
        q = Quadruple(z2 - 0.01, z2, z2 + 0.012, z2 + 0.02)
        res = single_break_closed_form(q, image_quadruple(q, m), brk, m)
        assert res.curvature == 0.0  # curvature-free family
        assert abs(res.actual - res.predicted) <= res.bound
        # the break sits in [z1, z2], at z = t
        assert res.predicted == pytest.approx(
            f_func(normalized_coords(q).xi, t, brk.sigma), rel=1e-12
        )


def test_pl_frame_matches_the_closed_forms():
    rng = random.Random(11)
    for _ in range(50):
        alpha, beta, gamma = (math.exp(rng.uniform(-3, 3)) for _ in range(3))
        sigma = math.exp(rng.uniform(-2, 2))
        q = quadruple_from_gaps(rng.uniform(-1, 1), alpha, beta, gamma)
        nc = normalized_coords(q)
        assert pl_frame_distortion(q, q.z2, sigma) == pytest.approx(
            f_func(nc.xi, 0.0, sigma), rel=1e-12
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
    res = single_break_closed_form(q, image_quadruple(q, m), brk, m)
    # the break sits in [z3, z4], at theta = 0.4
    assert res.predicted == pytest.approx(
        f_func(normalized_coords(q).eta, 0.4, 1 / brk.sigma), rel=1e-12
    )
    assert res.actual == pytest.approx(res.predicted, abs=1e-12)


def test_single_break_closed_form_pq_bounded(pq_map):
    brk = pq_map.breaks[0]
    q = Quadruple(brk.location - 0.005, brk.location, brk.location + 0.006,
                  brk.location + 0.011)
    res = single_break_closed_form(q, image_quadruple(q, pq_map), brk, pq_map)
    assert res.curvature > 0
    assert res.bound == res.curvature + res.rounding
    assert abs(res.actual - res.predicted) <= res.bound


def _assert_row_without_bound(q, m):
    (row,) = distortion_rows((q,), m)
    assert row == DistortionRow(cross_ratio(q), distortion(q, m))
    assert (row.predicted, row.residual, row.bound) == (None, None, None)


def test_single_break_rejects_second_break(pq_map):
    # no closed form covers two breaks in one hull
    a, c = pq_map.breaks[0].location, pq_map.breaks[1].location
    _assert_row_without_bound(Quadruple(a - 0.01, a, (a + c) / 2, c + 0.01), pq_map)


def test_single_break_rejects_a_middle_gap_break():
    # nor one break in the middle gap, though its PL frame is defined
    m = make_pl_two_break(0.3, 0.7, 2.0)
    brk = m.breaks[0]
    _assert_row_without_bound(quadruple_from_gaps(brk.location - 0.01, 0.005, 0.01, 0.005), m)


# the pq map of the bundled partition and distortion configs, as pinned there
PINNED_PQ = make_pq_two_break(0.2, 0.6, 2.0, 0.8, 0.6949140919153628)
PL = make_pl_two_break(0.2, 0.6, 3.0, 0.3)


def test_calibrations():
    assert calibrate_k1(make_pl_two_break(0.3, 0.7, 2.0)) == 0.0
    assert calibrate_k1(make_rotation(0.3)) == 0.0
    for m in (PINNED_PQ, make_pq_two_break(0.2, 0.21, 2.0, 0.8)):
        k1 = calibrate_k1(m)
        assert k1 == 1 / min(m.seg_d0 + m.seg_d1)
        # Df is monotone on each segment, so log Df varies there by the
        # log of its end ratio, which K1 times the curvature integral bounds
        for s in (0, 1):
            lo, hi = m.seg_pos[s], m.seg_pos[s + 1]
            variation = abs(math.log(m.seg_d1[s] / m.seg_d0[s]))
            assert variation <= k1 * abs_d2f_integral(m, lo, hi)


def test_c1_is_closed_form(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("a calibration drew random numbers")

    monkeypatch.setattr(random, "Random", no_sampling)
    min_df = min(PINNED_PQ.seg_d0 + PINNED_PQ.seg_d1)
    assert calibrate_k1(PINNED_PQ) == 1 / min_df
    assert calibrate_c1(PINNED_PQ) == 1 / (4 * min_df**2)
    assert calibrate_c1(PINNED_PQ) == pytest.approx(0.62016, abs=1e-5)
    assert calibrate_c1(PL) == 0.0
    assert calibrate_c1(make_rotation(0.3)) == 0.0


def _exact_lift(m, x):
    """f(x) in Fraction arithmetic from m's segment table."""
    p0, p1 = Fraction(m.seg_pos[0]), Fraction(m.seg_pos[1])
    j = math.floor(x - p0)
    s = 0 if x - j < p1 else 1
    du = x - j - Fraction(m.seg_pos[s])
    return (
        Fraction(m.seg_val[s])
        + du * (Fraction(m.seg_d0[s]) + Fraction(m.seg_curv[s]) / 2 * du)
        + j
        + Fraction(m.translation)
    )


# the pl_generic and pq_main maps at the translations their bundled
# singularity runs tune to
TUNED_PL_GENERIC = make_pl_two_break(0.2, 0.6, 3.0, 0.47669284285625607)
TUNED_PQ_MAIN = make_pq_two_break(0.2, 0.6, 2.0, 0.8, 0.6949144976323708)


@pytest.mark.parametrize("m", [TUNED_PL_GENERIC, TUNED_PQ_MAIN], ids=["pl", "pq"])
def test_chain_image_gaps_hold_their_rounding_bound(m):
    # one chain_points step on gaps of 1e-12, where one rounding of a lift
    # is about 1e-4 of a gap: each float image gap stays within
    # distortion_rounding's per-gap term of the exact image of its float
    # ends, u max|P| + (6 + k(2S + 1)/lo) u g'.  Taking a gap as the
    # difference of the two lift images instead misses it by about 9x
    # (pl) and 20x (pq).
    stats = map_stats(m)
    rng = random.Random(3)
    for _ in range(2000):
        zs = [rng.uniform(0.5, 0.99)]
        for _ in range(3):
            zs.append(zs[-1] + 1e-12 * (0.5 + rng.random()))
        # no break near the hull, so no gap is split at a segment end
        assert not any(zs[0] - 1e-9 < b.location < zs[-1] + 1e-9 for b in m.breaks)
        img = chain_points(m, zs, 1)[1]
        exact = [_exact_lift(m, Fraction(z)) for z in zs]
        s = 1.0 + max(-zs[0], zs[-1])
        per_point = U * max(-img[0], img[-1])
        rel = (6.0 + stats.d2f_max * (2.0 * s + 1.0) / stats.df_min) * U
        for i in range(3):
            gap = img[i + 1] - img[i]
            err = abs(Fraction(gap) - (exact[i + 1] - exact[i]))
            assert err <= per_point + rel * gap, (zs, i)


def _exact_cross_ratio(a, b, c):
    return a * c / ((a + b) * (b + c))


def _exact_distortion(m, q):
    zs = [Fraction(z) for z in q]
    fs = [_exact_lift(m, z) for z in zs]
    return _exact_cross_ratio(*(fs[k + 1] - fs[k] for k in range(3))) / _exact_cross_ratio(
        *(zs[k + 1] - zs[k] for k in range(3))
    )


def _seeded_quadruples(rng, m, count, breaks_inside):
    """Quadruples at scales 1e-7 to 1e-1 on lifts in [-3, 4), keeping those
    whose closed hull holds ``breaks_inside`` breaks."""
    out = []
    while len(out) < count:
        scale = 10 ** rng.uniform(-7, -1)
        gaps = [scale * (0.25 + rng.random()) for _ in range(3)]
        q = quadruple_from_gaps(rng.uniform(-3, 4), *gaps)
        if breaks_inside:
            brk = rng.choice(m.breaks)
            # the break at a random point of a side gap
            t = rng.random()
            left = t * gaps[0] if rng.random() < 0.5 else gaps[0] + gaps[1] + t * gaps[2]
            lift = brk.location + math.floor(q.z1 - brk.location) + 1
            q = quadruple_from_gaps(lift - left, *gaps)
        inside = sum(q.z1 <= lift_into(b.location, q.z1) <= q.z4 for b in m.breaks)
        if inside == breaks_inside:
            out.append(q)
    return out


@pytest.mark.parametrize("m", [PINNED_PQ, PL], ids=["pq", "pl"])
def test_break_free_bound_holds_in_exact_arithmetic(m):
    for q in _seeded_quadruples(random.Random(5), m, 400, 0):
        exact = _exact_distortion(m, q)
        img = image_quadruple(q, m)
        sb = smooth_distortion_bound(m, q)
        assert sb.predicted == 1.0
        # the closed-form C1 bounds the exact distortion (0 for PL maps) ...
        assert abs(exact - 1) <= sb.curvature
        # ... and the rounding term the float one
        d = sb.actual
        assert abs(Fraction(d) - exact) <= distortion_rounding(q, img, m) * Fraction(d)
        row = distortion_rows((q,), m)[0]
        assert not row.closed_form
        assert row.residual == abs(d - 1) <= row.bound == sb.bound


def test_pl_one_break_rows_hold_their_rounding_bound():
    # a PL map's distortion is its PL frame exactly, so K1 = 0 and each
    # one-break residual is rounding alone
    for q in _seeded_quadruples(random.Random(9), PL, 400, 1):
        img = image_quadruple(q, PL)
        d = cross_ratio(img) / cross_ratio(q)
        exact = _exact_distortion(PL, q)
        assert abs(Fraction(d) - exact) <= distortion_rounding(q, img, PL) * Fraction(d)
        row = distortion_rows((q,), PL)[0]
        if row.closed_form:
            assert row.residual <= row.bound


# the pq maps of the jump-ratio grid (tests/test_singularity.py)
JUMP_GRID_PQ = [
    make_pq_two_break(0.2, 0.6, sigma_a, sigma_c)
    for sigma_a in (0.5, 1.25, 2.0, 4.0)
    for sigma_c in (0.1, 0.3, 0.45, 0.55, 0.7, 0.8, 0.9, 1.6, 3.0)
    if sigma_a * sigma_c != 1.0
]


def _exact_pl_frame(q, brk):
    """pl_frame_distortion in Fraction arithmetic, at the break's exact lift
    and its exact jump ratio."""
    zs = [Fraction(z) for z in q]
    pos = Fraction(brk.location) + math.ceil(zs[0] - Fraction(brk.location))
    sigma = Fraction(brk.d_minus) / Fraction(brk.d_plus)
    imgs = []
    for u, w in zip(zs, zs[1:]):
        left = min(max(pos - u, 0), w - u)
        imgs.append(sigma * left + (w - u - left))
    return _exact_cross_ratio(*imgs) / _exact_cross_ratio(
        *(zs[k + 1] - zs[k] for k in range(3))
    )


def test_closed_form_curvature_term_holds_in_exact_arithmetic():
    # one break in either side gap or in the middle gap, hulls of 1e-6 to
    # 0.03, and middle-to-side gap ratios of 0.01 to 5000, which the
    # c_in_U covers reach at C0 up to 4180; the largest residual uses 0.17
    # of the term
    rng = random.Random(42)
    for _ in range(1500):
        m = rng.choice(JUMP_GRID_PQ)
        brk = rng.choice(m.breaks)
        hull = 10 ** rng.uniform(-6, math.log10(0.03))
        ratio = 10 ** rng.uniform(-2, math.log10(5000))
        sides = [0.5 + rng.random() for _ in range(2)]
        middle = ratio * (sides[0] + sides[1]) / 2
        scale = hull / (sides[0] + middle + sides[1])
        gaps = [sides[0] * scale, middle * scale, sides[1] * scale]
        which = rng.randrange(3)
        offset = sum(gaps[:which]) + rng.random() * gaps[which]
        q = quadruple_from_gaps(brk.location + rng.randrange(-2, 3) - offset, *gaps)
        exact = _exact_distortion(m, q)
        frame = _exact_pl_frame(q, brk)
        cf = single_break_closed_form(q, image_quadruple(q, m), brk, m)
        assert abs(exact - frame) <= cf.curvature, q


def test_rounding_past_its_range_is_refused():
    # gaps of 1e-15 on a lift near 3: eps over the gap is above 1/64
    q = quadruple_from_gaps(3.1, 1e-15, 1e-15, 1e-15)
    with pytest.raises(PrecisionBudgetExceeded):
        distortion_rows((q,), PINNED_PQ)


def _reference_row(q, m):
    # one row through the bound records, with no inline path: the
    # reference distortion_rows is held to
    cr = cross_ratio(q)
    inside = [b for b in m.breaks if q.z1 < lift_into(b.location, q.z1) < q.z4]
    if not inside:
        fc = smooth_distortion_bound(m, q)
    else:
        if len(inside) > 1 or q.z2 < lift_into(inside[0].location, q.z1) < q.z3:
            return DistortionRow(cr, distortion(q, m))
        fc = single_break_closed_form(q, image_quadruple(q, m), inside[0], m)
    predicted, actual, bound = fc.predicted, fc.actual, fc.bound
    residual = abs(actual - predicted)
    if residual > bound:
        what = "closed-form" if inside else "break-free distortion"
        raise InvariantFailure(f"{what} residual {residual:.3e} exceeds its bound {bound:.3e}")
    return DistortionRow(cr, actual, predicted, residual, bound, bool(inside))


def _fields(row):
    return tuple(repr(v) for v in row)


def _outcome(row_of, q, m):
    """The repr of each field of q's row, or the error's type and message."""
    try:
        return _fields(row_of(q, m))
    except CircleBreakError as e:
        return type(e), str(e)


def _counted_general_rows(monkeypatch):
    """The quadruples distortion_rows hands to _general_row, from now on."""
    general = []
    original = circlebreak.crossratio._general_row

    def counted(q, m):
        general.append(q)
        return original(q, m)

    monkeypatch.setattr(circlebreak.crossratio, "_general_row", counted)
    return general


# the pinned pq map, a pq map whose breaks do not multiply to 1, a PL map
# and a rotation
KERNEL_ROW_MAPS = [PINNED_PQ, make_pq_two_break(0.3, 0.9, 3.0, 0.7), PL, make_rotation(0.3)]


def _kernel_quadruples(m, rng):
    """Seeded quadruples at scales 1e-7 to 0.2 on lifts in [-3, 4), with
    hulls that start or end within 1e-15 of a segment end, and hulls too
    small for the rounding budget."""
    def gaps(scale):
        return [scale * (0.25 + rng.random()) for _ in range(3)]

    qs = [
        quadruple_from_gaps(rng.uniform(-3, 4), *gaps(10 ** rng.uniform(-7, math.log10(0.2))))
        for _ in range(1500)
    ]
    ends = [b.location for b in m.breaks] or [0.0]
    for _ in range(1000):
        # a few ulps from a segment end, where the walk may split a hull
        # that holds no break, or start on the end it rounded back
        end = edge = rng.choice(ends) + rng.randrange(-3, 4)
        toward = rng.choice([-math.inf, math.inf])
        for _ in range(rng.randrange(6)):
            step = math.nextafter(edge, toward)
            if abs(step - end) > 1e-15:
                break
            edge = step
        g = gaps(10 ** rng.uniform(-7, math.log10(0.2)))
        if rng.random() < 0.5:
            qs.append(quadruple_from_gaps(edge, *g))
        else:
            qs.append(Quadruple(edge - g[0] - g[1] - g[2], edge - g[1] - g[2], edge - g[2], edge))
    qs += [quadruple_from_gaps(z, 1e-15, 1e-15, 1e-15) for z in (3.1, *ends)]
    return qs


@pytest.mark.parametrize("m", KERNEL_ROW_MAPS, ids=["pq-pinned", "pq", "pl", "rotation"])
def test_distortion_rows_match_the_reference_path(m, monkeypatch):
    qs = _kernel_quadruples(m, random.Random(24))
    expected = [_outcome(_reference_row, q, m) for q in qs]
    assert any(isinstance(want[0], type) for want in expected)
    general = _counted_general_rows(monkeypatch)
    # one quadruple at a time
    for q, want in zip(qs, expected):
        assert _outcome(lambda q, m: distortion_rows((q,), m)[0], q, m) == want, q
    # one batch gives the rows that one call a row gives
    kept = [q for q, want in zip(qs, expected) if not isinstance(want[0], type)]
    assert [_fields(row) for row in distortion_rows(kept, m)] == [
        want for want in expected if not isinstance(want[0], type)
    ]
    # the kernel computes most break-free rows itself, on every map: a
    # rotation is a segment table too
    assert 0 < len(general) < len(qs) / 2


# Break lift 0.625 + 2**-53 - 1 of the map below, and the spacing 2**-54 of
# the floats around it
_BRK, _ULP = 0.625 + 2.0**-53 - 1, 2.0**-54

# Rows that take the kernel's rarer turns, as (map, quadruple, whether the
# row leaves the kernel).  Each lies within rounding of a segment end or
# wraps the circle, where the kernel's and gap_image's walks must agree.
KERNEL_EDGE_ROWS = {
    # z2 - p0 rounds up to -1, while z2 + 1 = 0.625 lies below p0: the
    # reduction pulls z2's piece back a turn, into segment 1 of lift -2,
    # which ends at fl(p0 + 1) - 2 = -0.375 = z2 itself.  The break's lift
    # is z4, so no break lies inside the hull
    "piece-pulled-back-past-its-end": (
        make_pq_two_break(0.625 + 2.0**-53, 0.9, 2.0, 0.8),
        Quadruple(_BRK - 4 * _ULP, _BRK - 2 * _ULP, _BRK - _ULP, _BRK),
        True,
    ),
    # z2 + 1 rounds up to p0 + 1, one turn on: its piece moves a lift up
    "piece-pushed-a-turn-on": (
        make_pl_two_break(0.2, 0.3, 3.0),
        Quadruple(0.19999999999999973, 0.19999999999999982, 0.1999999999999999, 0.19999999999999996),
        True,
    ),
    # f(z1) lies within 2 eps below 1, so the anchor is the origin
    "anchor-clamped-to-0": (
        make_rotation(0.3),
        quadruple_from_gaps(math.nextafter(0.7, 0.0), 0.01, 0.02, 0.03),
        False,
    ),
    # slope 2 - 1e-16 on the whole of [0.25, 0.75]: its image rounds to a
    # full turn
    "image-hull-a-full-turn": (
        make_pl_two_break(0.25, 0.75, 1e16),
        Quadruple(0.25, 0.25 + 0.5 / 3, 0.25 + 1 / 3, 0.75),
        True,
    ),
    # ulp gaps under the slope-1/3 segment's end: an image gap falls to the
    # degeneracy floor
    "image-gap-below-the-floor": (
        make_pl_two_break(0.5, 0.3, 3.0),
        Quadruple(0.49999999999999967, 0.49999999999999983, 0.49999999999999994, 0.5),
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(KERNEL_EDGE_ROWS))
def test_kernel_edge_rows_match_the_reference_path(monkeypatch, name):
    m, q, leaves = KERNEL_EDGE_ROWS[name]
    want = _outcome(_reference_row, q, m)
    general = _counted_general_rows(monkeypatch)
    assert _outcome(lambda q, m: distortion_rows((q,), m)[0], q, m) == want
    assert general == ([q] if leaves else [])


def test_kernel_leaves_a_row_past_its_bound_to_the_reference(monkeypatch):
    # with C1 read as 0, the curved map's break-free residual exceeds the
    # rounding term that is left of its bound
    monkeypatch.setattr(circlebreak.crossratio, "calibrate_c1", lambda m: 0.0)
    q = quadruple_from_gaps(0.3, 0.01, 0.02, 0.03)
    want = _outcome(_reference_row, q, PINNED_PQ)
    assert want[0] is InvariantFailure
    assert want[1].startswith("break-free distortion residual ")
    general = _counted_general_rows(monkeypatch)
    assert _outcome(lambda q, m: distortion_rows((q,), m)[0], q, PINNED_PQ) == want
    assert general == [q]


def test_smooth_bound_scaling(pq_map):
    # Inside one smooth piece the bound is governed by the squared
    # curvature integral: each halving of the hull halves the integral
    # and quarters the curvature term.
    z1 = 0.25
    h = 0.08
    prev = None
    for _ in range(5):
        q = quadruple_from_gaps(z1, h / 3, h / 3, h / 3)
        sb = smooth_distortion_bound(pq_map, q)
        integral = abs_d2f_integral(pq_map, q.z1, q.z4)
        assert abs(distortion(q, pq_map) - 1.0) <= sb.bound
        assert sb.curvature == calibrate_c1(pq_map) * integral**2
        if prev is not None:
            prev_integral, prev_curvature = prev
            assert integral == pytest.approx(prev_integral / 2, rel=1e-9)
            assert sb.curvature == pytest.approx(prev_curvature / 4, rel=1e-9)
        prev = (integral, sb.curvature)
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
    q = quadruple_from_gaps(gen.left, third, third, third)
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
