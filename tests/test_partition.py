import math
import random

import pytest

from circlebreak.errors import BreakCollision, PrecisionBudgetExceeded
from circlebreak.maps import (
    NUDGE,
    iterate,
    make_pl_two_break,
    make_pq_two_break,
    make_rotation,
    map_stats,
    one_sided_derivatives,
    orbit_avoiding_breaks,
)
from circlebreak.numerics import BREAK_CLEARANCE_EPS, MACHINE_EPS, arc_length, to_circle
from circlebreak.partition import (
    CircleInterval,
    build_partition,
    check_refinement,
    denjoy_product,
    df_product,
    endpoint_condition,
    is_qn_small,
    max_element_decay,
    partition_rows,
)
from circlebreak.rotation import (
    ContinuedFraction,
    convergent_error,
    tune_translation,
)

from conftest import GOLDEN


def test_rotation_partition_three_distance(gcf):
    part = build_partition(make_rotation(GOLDEN), gcf, 0.0, 4)
    assert (part.q_n, part.q_nm1) == (5, 3)
    assert len(part.elements) == 8
    lengths = sorted({round(e.interval.length, 12) for e in part.elements})
    assert len(lengths) == 2  # rotations admit exactly two gap sizes here


def test_pq_partition_counts(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 6)
    assert (part.q_n, part.q_nm1) == (13, 8)
    assert len(part.elements) == 21
    assert len(part.rank_elements(5)) == 13
    assert len(part.rank_elements(6)) == 8


def test_rank_one_partition(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 1)
    assert len(part.elements) == 2


def test_partition_covers_circle(pq_map, gcf):
    for n in (4, 8, 12):
        part = build_partition(pq_map, gcf, 0.05, n)
        total = part.total_length()
        assert abs(total - 1.0) <= part.q_n * 10 * MACHINE_EPS
        # sorted left endpoints + lengths tile without overlap
        elems = sorted(part.elements, key=lambda e: e.interval.left)
        for cur, nxt in zip(elems, elems[1:]):
            gap = arc_length(cur.interval.left, nxt.interval.left)
            assert gap == pytest.approx(cur.interval.length, abs=1e-12)


def test_refinement_golden_splits_two(pq_map, gcf):
    coarse = build_partition(pq_map, gcf, 0.05, 7)
    fine = build_partition(pq_map, gcf, 0.05, 8)
    rep = check_refinement(coarse, fine, gcf)
    assert rep.k_next == 1
    assert set(rep.split_counts) == {2}
    assert rep.persisted == coarse.q_nm1


def test_refinement_large_quotient_splits_four():
    cf = ContinuedFraction.from_quotients([1, 3] + [1] * 28)
    base = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    res = tune_translation(base, cf.value, tol=1e-9)
    m = base.with_translation(res.translation)
    coarse = build_partition(m, cf, 0.05, 1)
    fine = build_partition(m, cf, 0.05, 2)
    rep = check_refinement(coarse, fine, cf)
    assert rep.k_next == 3
    assert set(rep.split_counts) == {4}


def test_denjoy_rotation_product_exact(gcf):
    m = make_rotation(GOLDEN)
    for n in (3, 6, 9):
        assert denjoy_product(m, gcf, 0.1, n) == 1.0


def test_denjoy_pl_bounds(pl_map, gcf):
    stats = map_stats(pl_map)
    rng = random.Random(31)
    for _ in range(100):
        p = denjoy_product(pl_map, gcf, rng.random(), 8)
        assert math.exp(-stats.v) <= p <= math.exp(stats.v)


def test_denjoy_pl_ratio_two_explicit_bounds(gcf):
    base = make_pl_two_break(0.2, 0.6, 2.0)
    m = base.with_translation(tune_translation(base, gcf.value, tol=1e-9).translation)
    rng = random.Random(17)
    for _ in range(50):
        p = denjoy_product(m, gcf, rng.random(), 8)
        assert 0.25 <= p <= 4.0  # e^{+-2 log 2}


def test_denjoy_pq_bounds(pq_map, gcf):
    stats = map_stats(pq_map)
    rng = random.Random(7)
    for _ in range(100):
        p = denjoy_product(pq_map, gcf, rng.random(), 10)
        assert math.exp(-stats.v) <= p <= math.exp(stats.v)


def test_decay_rotation_closed_form(gcf):
    # Max cell length at rank n is the convergent error beta_{n-1}; note
    # beta_0 = rho itself (p_0 = 0), not the distance to the nearest integer.
    fit = max_element_decay(make_rotation(GOLDEN), gcf, 0.0, 9)
    for n, ln in fit.rows:
        assert ln == pytest.approx(convergent_error(gcf, GOLDEN, n - 1), abs=1e-9)


def test_decay_pq_rate(pq_map, gcf):
    fit = max_element_decay(pq_map, gcf, 0.05, 12)
    assert fit.slope <= fit.log_lambda + 0.05
    lens = [ln for _, ln in fit.rows]
    assert all(b <= a for a, b in zip(lens, lens[1:]))


def test_is_qn_small_generator(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 6)
    gen = part.elements[0].interval
    assert is_qn_small(pq_map, gcf, gen, 6)


def test_is_qn_small_whole_circle(pq_map, gcf):
    circle = CircleInterval(left=0.0, length=1.0)
    assert not is_qn_small(pq_map, gcf, circle, 4)


def test_endpoint_condition_on_generators(pq_map, gcf):
    for n in (5, 6, 7):
        part = build_partition(pq_map, gcf, 0.05, n)
        gen = part.elements[0].interval
        assert endpoint_condition(pq_map, gcf, gen, n)


def test_df_ratio_qn_close(pq_map, gcf):
    # Ratio bound along iterates of q_n-close endpoint pairs.
    stats = map_stats(pq_map)
    n = 7
    part = build_partition(pq_map, gcf, 0.05, n)
    gen = part.elements[0].interval
    x, y = gen.left, gen.right
    for steps in (1, part.q_nm1, part.q_n):
        ratio = df_product(pq_map, x, steps) / df_product(pq_map, y, steps)
        assert math.exp(-stats.v) - 1e-9 <= ratio <= math.exp(stats.v) + 1e-9


def test_interval_comparability(pq_map, gcf):
    stats = map_stats(pq_map)
    n = 8
    q_n = gcf.q(n)
    rng = random.Random(23)
    for _ in range(20):
        left = rng.random()
        length = 10.0 ** rng.uniform(-6, -2)
        moved = iterate(pq_map, left, q_n)[-1]
        moved_r = iterate(pq_map, left + length, q_n)[-1]
        ratio = arc_length(moved, moved_r) / length
        assert math.exp(-stats.v) - 1e-9 <= ratio <= math.exp(stats.v) + 1e-9


def test_partition_rows_shape(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 5)
    rows = partition_rows(part)
    assert len(rows) == len(part.elements)
    n, rank_tag, index, left, length = rows[0]
    assert n == 5 and rank_tag in (4, 5) and index == 0
    assert 0 <= left < 1 and 0 < length < 1


def test_orbit_cap_comes_from_the_caller(monkeypatch, pq_map, gcf):
    # every orbit is sized by the cap the caller passes, not the default
    monkeypatch.setattr("circlebreak.maps.DEFAULT_ORBIT_CAP", 100)
    part = build_partition(pq_map, gcf, 0.05, 10, cap=1000)
    assert len(part.orbit) == 144
    assert denjoy_product(pq_map, gcf, 0.05, 12, cap=1000) > 0
    gen = build_partition(pq_map, gcf, 0.05, 12, cap=1000).elements[0].interval
    assert is_qn_small(pq_map, gcf, gen, 12, cap=1000)


def test_orbit_cap_counts_map_evaluations(pq_map, gcf):
    # rank 10 needs q_10 + q_9 = 144 orbit points, i.e. 143 evaluations
    assert len(build_partition(pq_map, gcf, 0.05, 10, cap=143).orbit) == 144
    with pytest.raises(PrecisionBudgetExceeded, match="143 exceeds cap 142"):
        build_partition(pq_map, gcf, 0.05, 10, cap=142)
    # a product over 144 points takes the same 143 evaluations
    assert df_product(pq_map, 0.05, 144, cap=143) > 0
    with pytest.raises(PrecisionBudgetExceeded):
        df_product(pq_map, 0.05, 144, cap=142)


def test_partition_nudges_off_a_break(pq_map, gcf):
    # x0 = 0.2 is the break a itself: the partition shifts it once
    part = build_partition(pq_map, gcf, 0.2, 6)
    assert part.nudges == 1
    assert part.x0 == 0.200000001


def test_denjoy_product_refuses_a_break_orbit(pq_map, gcf):
    # the Denjoy bound needs an orbit clear of the breaks: no nudging
    with pytest.raises(BreakCollision):
        denjoy_product(pq_map, gcf, 0.2, 6)


@pytest.mark.parametrize("name", ["pq_map", "pl_map"])
def test_df_product_matches_running_product(request, name):
    m = request.getfixturevalue(name)
    for x0 in (0.05, 0.31, 0.77):
        prod = 1.0
        for p in iterate(m, x0, 232):
            prod *= one_sided_derivatives(m, p)[1]
        assert df_product(m, x0, 233) == prod


def _reference_orbit_avoiding_breaks(m, x0, n, retries):
    # the clearance scan point by point, through arc_length
    clearance = BREAK_CLEARANCE_EPS * MACHINE_EPS
    far = 1 - clearance
    x = to_circle(x0)
    for attempt in range(retries + 1):
        pts = iterate(m, x, n)
        arcs = [arc_length(b.location, p) for p in pts for b in m.breaks]
        if all(clearance < arc < far for arc in arcs):
            return pts, x, attempt
        x = to_circle(x + NUDGE)
    raise BreakCollision("reference scan gave up")


@pytest.mark.parametrize("name", ["pq_map", "pl_map"])
def test_orbit_landing_on_a_break_later(request, name):
    # start k steps back from the break c, so the k-th point is c itself
    m = request.getfixturevalue(name)
    k, loc = 5, m.breaks[1].location
    x0 = iterate(m, loc, k, direction="backward")[-1]
    assert abs(iterate(m, x0, k)[-1] - loc) < 8 * MACHINE_EPS
    with pytest.raises(BreakCollision):
        orbit_avoiding_breaks(m, x0, 20, retries=0)
    with pytest.raises(BreakCollision):
        df_product(m, x0, 21)
    pts, used, nudges = orbit_avoiding_breaks(m, x0, 20, retries=10)
    assert (pts, used, nudges) == _reference_orbit_avoiding_breaks(m, x0, 20, 10)
    assert nudges == 1 and used == to_circle(x0 + NUDGE)
    for x in (0.05, 0.31, 0.77):
        assert orbit_avoiding_breaks(m, x, 300) == _reference_orbit_avoiding_breaks(
            m, x, 300, 10
        )


def test_is_qn_small_cap_is_per_orbit(pq_map, gcf):
    # rank 12: q_12 = 233, so the longest orbit takes 232 evaluations
    gen = build_partition(pq_map, gcf, 0.05, 12).elements[0].interval
    assert is_qn_small(pq_map, gcf, gen, 12, cap=232)
    with pytest.raises(PrecisionBudgetExceeded, match="232 exceeds cap 231"):
        is_qn_small(pq_map, gcf, gen, 12, cap=231)
