import math
import random
from collections import Counter

import pytest

from circlebreak import numerics
from circlebreak.errors import (
    BreakCollision,
    InvariantFailure,
    PrecisionBudgetExceeded,
    RankTooShallow,
    RefinementViolation,
)
from circlebreak.maps import (
    clears_breaks,
    df_product,
    iterate,
    make_pl_two_break,
    make_pq_two_break,
    make_rotation,
    map_stats,
    retreat,
)
from circlebreak.numerics import (
    BREAK_CLEARANCE_EPS,
    MACHINE_EPS,
    arc_length,
    in_arc,
    to_circle,
)
from circlebreak.partition import (
    MAX_NUDGES,
    NUDGE,
    CellTable,
    build_partition,
    check_refinement,
    denjoy_product,
    least_squares_line,
    max_element_decay,
    partition_rows,
)
from circlebreak.rotation import (
    ContinuedFraction,
    convergent_error,
    tune_translation,
)

from conftest import (
    GOLDEN,
    Arc,
    _reference_endpoint_condition,
    _reference_is_qn_small,
    _reference_one_sided_derivatives,
    cell_interval,
    sum_left_to_right,
)


def test_rotation_partition_three_distance(gcf):
    part = build_partition(make_rotation(GOLDEN), gcf, 0.0, 4)
    assert (part.q_n, part.q_nm1) == (5, 3)
    assert len(part.elements) == 8
    lengths = sorted({round(v, 12) for v in part.elements.length})
    assert len(lengths) == 2  # rotations admit exactly two gap sizes here


def test_pq_partition_counts(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 6)
    assert (part.q_n, part.q_nm1) == (13, 8)
    assert len(part.elements) == 21
    assert part.elements.rank_tag.count(5) == 13
    assert part.elements.rank_tag.count(6) == 8


def test_rank_one_partition(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 1)
    assert len(part.elements) == 2


def test_total_length_adds_the_cells_in_order(pq_map, gcf):
    # four cells whose lengths sum to 2.0 only under a compensated sum
    part = build_partition(pq_map, gcf, 0.05, 1)
    columns = [col * 2 for col in part.elements._columns()[:-1]]
    cells = CellTable(*columns, (1.0, 1e100, 1.0, -1e100))
    assert part._replace(elements=cells).total_length() == 0.0


def test_partition_covers_circle(pq_map, gcf):
    for n in (4, 8, 12):
        part = build_partition(pq_map, gcf, 0.05, n)
        total = part.total_length()
        assert abs(total - 1.0) <= part.q_n * 10 * MACHINE_EPS
        # sorted left endpoints + lengths tile without overlap
        cells = sorted(zip(part.elements.left, part.elements.length))
        for (left, length), (nxt, _) in zip(cells, cells[1:]):
            gap = arc_length(left, nxt)
            assert gap == pytest.approx(length, abs=1e-12)


def test_refinement_golden_splits_two(pq_map, gcf):
    coarse = build_partition(pq_map, gcf, 0.05, 7)
    fine = build_partition(pq_map, gcf, 0.05, 8)
    rep = check_refinement(coarse, fine)
    assert rep.k_next == 1
    assert rep.persisted == coarse.q_nm1


def test_refinement_large_quotient_splits_four():
    cf = ContinuedFraction.from_quotients([1, 3] + [1] * 28)
    base = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    res = tune_translation(base, cf, tol=1e-9)
    m = base.with_translation(res.translation)
    coarse = build_partition(m, cf, 0.05, 1)
    fine = build_partition(m, cf, 0.05, 2)
    rep = check_refinement(coarse, fine)
    assert rep.k_next == 3
    assert rep.persisted == coarse.q_nm1


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
    m = base.with_translation(tune_translation(base, gcf, tol=1e-9).translation)
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
    rot = make_rotation(GOLDEN)
    fit = max_element_decay(rot, build_partition(rot, gcf, 0.0, 9))
    for n, ln in fit.rows:
        assert ln == pytest.approx(convergent_error(gcf, GOLDEN, n - 1), abs=1e-9)


def test_decay_pq_rate(pq_map, gcf):
    fit = max_element_decay(pq_map, build_partition(pq_map, gcf, 0.05, 12))
    assert fit.slope <= fit.log_lambda + 0.05
    lens = [ln for _, ln in fit.rows]
    assert all(b <= a for a, b in zip(lens, lens[1:]))


def test_least_squares_line_is_exact():
    # (0, 0), (1, 1), (2, 1): slope 1/2 and intercept 1/6, each rounded once
    assert least_squares_line([(0, 0.0), (1, 1.0), (2, 1.0)]) == (0.5, 1 / 6)
    # dyadic data, slope 19/20 and intercept -1/4
    rows = [(1, 0.75), (2, 1.5), (3, 2.75), (4, 3.5)]
    assert least_squares_line(rows) == (0.95, -0.25)
    with pytest.raises(ValueError):
        least_squares_line([(3, 1.0), (3, 2.0)])


def test_decay_fit_is_the_exact_line(pq_map, gcf):
    fit = max_element_decay(pq_map, build_partition(pq_map, gcf, 0.05, 12))
    assert (fit.slope, fit.intercept) == least_squares_line(
        [(n, math.log(ln)) for n, ln in fit.rows]
    )


# The reference q_n-smallness test, the oracle of the chain-based check
# in test_singularity, on arcs whose answer is known


def test_is_qn_small_generator(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 6)
    gen = cell_interval(part, 0)
    assert _reference_is_qn_small(pq_map, gcf, gen, 6)


def test_is_qn_small_whole_circle(pq_map, gcf):
    circle = Arc(left=0.0, length=1.0)
    assert not _reference_is_qn_small(pq_map, gcf, circle, 4)


def test_endpoint_condition_on_generators(pq_map, gcf):
    for n in (5, 6, 7):
        part = build_partition(pq_map, gcf, 0.05, n)
        gen = cell_interval(part, 0)
        assert _reference_endpoint_condition(pq_map, gcf, gen, n)


def test_df_ratio_qn_close(pq_map, gcf):
    # Ratio bound along iterates of q_n-close endpoint pairs.
    stats = map_stats(pq_map)
    n = 7
    part = build_partition(pq_map, gcf, 0.05, n)
    gen = cell_interval(part, 0)
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
    rows = list(partition_rows(part))
    assert len(rows) == len(part.elements)
    n, rank_tag, index, left, length = rows[0]
    assert n == 5 and rank_tag in (4, 5) and index == 0
    assert 0 <= left < 1 and 0 < length < 1


def test_orbit_cap_counts_map_evaluations(monkeypatch, pq_map, gcf):
    # rank 10 needs q_10 + q_9 = 144 orbit points, i.e. 143 evaluations
    monkeypatch.setattr(numerics, "ORBIT_CAP", 143)
    assert len(build_partition(pq_map, gcf, 0.05, 10).orbit) == 144
    # a product over 144 points takes the same 143 evaluations
    assert df_product(pq_map, 0.05, 144) > 0
    monkeypatch.setattr(numerics, "ORBIT_CAP", 142)
    with pytest.raises(PrecisionBudgetExceeded, match="143 exceeds cap 142"):
        build_partition(pq_map, gcf, 0.05, 10)
    with pytest.raises(PrecisionBudgetExceeded):
        df_product(pq_map, 0.05, 144)


def test_partition_nudges_off_a_break(pq_map, gcf):
    # x0 = 0.2 is the break a itself: the partition shifts it once
    part = build_partition(pq_map, gcf, 0.2, 6)
    assert part.nudges == 1
    assert part.x0 == 0.200000001


def test_partition_gives_up_after_its_last_nudge(monkeypatch, pq_map, gcf):
    # with a nudge that does not move the base point, the break a stays
    # on the orbit: one build and MAX_NUDGES rebuilds, then the refusal
    builds = []

    def spy(*args, **kwargs):
        builds.append(args[1])
        return iterate(*args, **kwargs)

    monkeypatch.setattr("circlebreak.partition.iterate", spy)
    monkeypatch.setattr("circlebreak.partition.NUDGE", 0.0)
    with pytest.raises(
        BreakCollision,
        match=f"orbit of 0.2 comes too close to a break after {MAX_NUDGES} nudges",
    ):
        build_partition(pq_map, gcf, 0.2, 6)
    assert builds == [0.2] * (MAX_NUDGES + 1)


def test_denjoy_product_refuses_a_break_orbit(pq_map, gcf):
    # the Denjoy bound needs an orbit clear of the breaks: no nudging
    with pytest.raises(BreakCollision):
        denjoy_product(pq_map, gcf, 0.2, 6)


def test_denjoy_product_refuses_a_short_fraction_and_a_wrong_bound(monkeypatch, pq_map, gcf):
    short = ContinuedFraction.from_quotients(gcf.quotients[:5])
    with pytest.raises(RankTooShallow, match="need 6 partial quotients, have 5"):
        denjoy_product(pq_map, short, 0.05, 6)
    # read with v = 0, a rotation's bound, the pq map's product escapes
    assert abs(denjoy_product(pq_map, gcf, 0.05, 6) - 1) > 1e-3
    monkeypatch.setattr(
        "circlebreak.partition.map_stats", lambda m: map_stats(m)._replace(v=0.0)
    )
    escape = r"escapes \[e\^-v, e\^v\] = \[1.0, 1.0\] at rank 6"
    with pytest.raises(InvariantFailure, match=escape):
        denjoy_product(pq_map, gcf, 0.05, 6)


def _running_product(m, x0, steps):
    prod = 1.0
    for p in iterate(m, x0, steps - 1):
        prod *= _reference_one_sided_derivatives(m, p)[1]
    return prod


def _break_distance(m, x):
    """Smallest circle distance from x to a break location of m."""
    return min(min(d, 1 - d) for d in (arc_length(b.location, x) for b in m.breaks))


@pytest.mark.parametrize("name", ["pq_map", "pl_map"])
def test_df_product_matches_running_product(request, name):
    m = request.getfixturevalue(name)
    assert df_product(m, 0.05, 0) == 1.0  # the empty product
    for x0 in (0.05, 0.31, 0.77):
        assert df_product(m, x0, 233) == _running_product(m, x0, 233)
        # q_18 = 4181 steps
        assert df_product(m, x0, 4181) == _running_product(m, x0, 4181)


def _no_orbit_lists(monkeypatch):
    """Make ``maps.iterate`` and ``maps.advance`` fail if anything in maps
    calls them, and record each point that ``maps.clears_breaks`` tests."""
    tested = []

    def refused(*args, **kwargs):
        raise AssertionError("df_product built a second orbit")

    def counted(m, pts):
        tested.extend(pts)
        return clears_breaks(m, pts)

    monkeypatch.setattr("circlebreak.maps.iterate", refused)
    monkeypatch.setattr("circlebreak.maps.advance", refused)
    monkeypatch.setattr("circlebreak.maps.clears_breaks", counted)
    return tested


@pytest.mark.parametrize("name", ["pq_map", "pl_map"])
def test_df_product_near_a_break(monkeypatch, request, name):
    # a point 1.5 clearances off a break is inside the kernel's 2x prefilter
    # band but outside the exact bound: the exact test runs on that point
    # alone and passes, and no orbit list is built; at 0.5 clearances it
    # raises
    m = request.getfixturevalue(name)
    clearance = BREAK_CLEARANCE_EPS * MACHINE_EPS
    references = {}
    for b in m.breaks:
        for side in (1, -1):
            near = to_circle(b.location + side * 1.5 * clearance)
            # the base point itself, then the point 5 steps on
            for k in (0, 5):
                x0 = retreat(m, to_circle(near), 0, k)[0]
                dist = min(_break_distance(m, p) for p in iterate(m, x0, 232))
                assert 1.2 * clearance < dist < 1.8 * clearance
                references[x0] = _running_product(m, x0, 233)
    reference = _running_product(m, 0.05, 233)
    tested = _no_orbit_lists(monkeypatch)
    assert df_product(m, 0.05, 233) == reference
    assert tested == []
    for x0, want in references.items():
        tested.clear()
        assert df_product(m, x0, 233) == want
        assert tested and all(_break_distance(m, p) < 2 * clearance for p in tested)
    for b in m.breaks:
        for side in (1, -1):
            inside = to_circle(b.location + side * 0.5 * clearance)
            x0 = retreat(m, to_circle(inside), 0, 5)[0]
            with pytest.raises(BreakCollision):
                df_product(m, x0, 233)
    # a rotation has no break: its segment end 0.5 is flagged, tested
    # alone and clear
    rot = make_rotation(GOLDEN)
    for x0 in (0.5, to_circle(0.5 - 5 * GOLDEN)):
        tested.clear()
        assert df_product(rot, x0, 233) == 1.0
        assert tested and all(abs(p - 0.5) < 2 * clearance for p in tested)


@pytest.mark.parametrize(
    "t, error", [(math.inf, OverflowError), (-math.inf, OverflowError), (math.nan, ValueError)]
)
def test_df_product_refuses_a_non_finite_translation(t, error):
    # the first image's floor raises, where y % 1.0 would go on with nan
    with pytest.raises(error):
        df_product(make_pq_two_break(0.2, 0.6, 2.0, 0.8, t), 0.3, 5)


def _df_product_floor(m, x0, steps):
    # df_product as written before it placed x by comparisons: the
    # fundamental-domain turn j comes from floor(x - p0), as in advance
    if steps < 1:
        return 1.0
    cap = numerics.ORBIT_CAP
    if steps - 1 > cap:
        raise PrecisionBudgetExceeded(f"orbit length {steps - 1} exceeds cap {cap}")
    if not m.breaks:
        return 1.0
    t = m.translation
    p0, p1 = m.seg_pos[0], m.seg_pos[1]
    p0_next = p0 + 1
    v0, v1 = m.seg_val[0], m.seg_val[1]
    a0, a1 = m.seg_d0
    c0, c1 = m.seg_curv
    h0, h1 = 0.5 * c0, 0.5 * c1
    clamp = 2 * MACHINE_EPS
    near = 2 * BREAK_CLEARANCE_EPS * MACHINE_EPS
    end0, end1 = (p1 - p0) - near, (p0_next - p1) - near
    x = to_circle(x0)
    prod = 1.0
    for _ in range(steps):
        j = math.floor(x - p0)
        u = x - j
        if u < p0:
            u += 1
            j -= 1
        elif u >= p0_next:
            u -= 1
            j += 1
        if u < p1:
            du = u - p0
            end = end0
            prod *= a0 + c0 * du
            y = v0 + du * (a0 + h0 * du) + j + t
        else:
            du = u - p1
            end = end1
            prod *= a1 + c1 * du
            y = v1 + du * (a1 + h1 * du) + j + t
        if (du < near or du > end) and not clears_breaks(m, [x]):
            raise BreakCollision(
                f"orbit of {x0!r} comes within {near / 2:.1e} of a break at {x!r}"
            )
        x = y - math.floor(y)
        if 1 - x <= clamp:
            x = 0.0
    return prod


def _outcome(fn, *args):
    """A result's bits, or the type and message of what it raised."""
    try:
        return "value", fn(*args).hex()
    except BreakCollision as e:
        return "raised", type(e).__name__, str(e)


def _sweep_maps():
    """The sweep's maps as params named by family and first break."""
    rng = random.Random(2024)
    # the pl map has c < a, so its segments start at c
    maps = [
        ("pq", make_pq_two_break(0.2, 0.6, 2.0, 0.8, 0.61)),
        ("pl", make_pl_two_break(0.75, 0.3, 3.0, 0.4)),
    ]
    for _ in range(3):
        a, c = rng.random(), rng.random()
        sa, sc = rng.uniform(0.3, 3), rng.uniform(0.3, 3)
        maps.append(("pq", make_pq_two_break(a, c, sa, sc, rng.random())))
        maps.append(("pl", make_pl_two_break(a, c, rng.uniform(0.3, 3), rng.random())))
    return [
        pytest.param(m, id=f"{family}_two_break-{m.breaks[0].location:.3f}")
        for family, m in maps
    ]


def _sweep_base_points(m, rng):
    clearance = BREAK_CLEARANCE_EPS * MACHINE_EPS
    points = [0.0, math.nextafter(1.0, 0.0)]
    points += [rng.random() for _ in range(20)]
    for b in m.breaks:
        x = b.location
        for _ in range(4):  # the break and three ulps to either side
            points += [x, b.location - (x - b.location)]
            x = math.nextafter(x, 1.0)
        for side in (1, -1):
            # inside the 2x prefilter band: clear at 1.5 clearances, not at 0.5
            for frac in (1.5, 0.5):
                near = to_circle(b.location + side * frac * clearance)
                points += [near, retreat(m, to_circle(near), 0, 5)[0]]
    return points


@pytest.mark.parametrize("m", _sweep_maps())
def test_df_product_matches_the_floor_step(m):
    # the comparison step is bit-identical to floor(x - p0), and the
    # near-break test raises the same BreakCollision message
    rng = random.Random(7)
    points = _sweep_base_points(m, rng)
    outcomes = Counter()
    for x0 in points:
        for steps in (1, 377, 2584):
            got = _outcome(df_product, m, x0, steps)
            assert got == _outcome(_df_product_floor, m, x0, steps), (x0, steps)
            outcomes[got[0]] += 1
    assert outcomes["value"] and outcomes["raised"]


def test_df_product_turn_fix_up_matches_the_floor_step():
    # just left of p0 = 0.2, x + 1 rounds up to p0 + 1: the step takes
    # the point back one turn, as floor's u >= p0 + 1 fix-up does
    m = make_pq_two_break(0.2, 0.6, 2.0, 0.8, 0.61)
    p0 = m.seg_pos[0]
    x = math.nextafter(p0, 0.0)
    assert x < p0 and x + 1 >= p0 + 1
    for steps in (1, 50):
        got = _outcome(df_product, m, x, steps)
        assert got == _outcome(_df_product_floor, m, x, steps)
        assert got[0] == "raised"


def _reference_df_outcome(m, x0, steps):
    """``_outcome`` of df_product point by point: Df_+ multiplied along
    iterate's orbit, each point first held to the arc test, through
    arc_length."""
    clearance = BREAK_CLEARANCE_EPS * MACHINE_EPS
    prod = 1.0
    for p in iterate(m, x0, steps - 1):
        arcs = [arc_length(b.location, p) for b in m.breaks]
        if not all(clearance < arc < 1 - clearance for arc in arcs):
            message = f"orbit of {x0!r} comes within {clearance:.1e} of a break at {p!r}"
            return "raised", "BreakCollision", message
        prod *= _reference_one_sided_derivatives(m, p)[1]
    return "value", prod.hex()


def _seeded_df_cases():
    """(map, base point, steps): preimages of each segment end (a break,
    or a rotation's 0 and 1/2), shifted by up to 3 ulps or by 0.5 to 3
    clearances either way."""
    rng = random.Random(40)
    clearance = BREAK_CLEARANCE_EPS * MACHINE_EPS
    maps = []
    for _ in range(2):
        a, c = rng.random(), rng.random()
        sa, sc = rng.uniform(0.3, 3), rng.uniform(0.3, 3)
        maps.append(make_pq_two_break(a, c, sa, sc, rng.random()))
        maps.append(make_pl_two_break(a, c, rng.uniform(0.3, 3), rng.random()))
        maps.append(make_rotation(rng.random()))
    cases = []
    for m in maps:
        for end in [b.location for b in m.breaks] or [0.0, 0.5]:
            for k in (0, 1, 4, 13):
                pre = retreat(m, end, 0, k)[0]
                points = []
                for direction in (1.0, -1.0):
                    x = pre
                    for _ in range(3):
                        x = math.nextafter(x, direction)
                        points.append(to_circle(x))
                    for frac in (0.5, 1.0, 1.5, 2.0, 3.0):
                        shift = direction * frac * rng.uniform(0.9, 1.1) * clearance
                        points.append(to_circle(pre + shift))
                for x0 in [pre] + points:
                    cases.append((m, x0, rng.choice((k + 1, 89, 233))))
    return cases


def test_df_product_tests_each_flagged_point_alone(monkeypatch):
    # df_product against the point-by-point reference on seeded orbits
    # through the segment ends: the same bits or the same BreakCollision,
    # with no second orbit built on the way
    cases = _seeded_df_cases()
    want = [_reference_df_outcome(*case) for case in cases]
    tested = _no_orbit_lists(monkeypatch)
    kinds = Counter()
    for case, ref in zip(cases, want):
        tested.clear()
        got = _outcome(df_product, *case)
        assert got == ref, case
        kinds[got[0], bool(tested)] += 1
    # collisions, flagged points that clear, and orbits never flagged
    assert len(cases) == 816
    assert kinds["raised", True] > 100
    assert kinds["value", True] > 100
    assert kinds["value", False] > 0
    assert kinds["raised", False] == 0


def _reference_orbit_avoiding_breaks(m, x0, n):
    # build_partition's orbit, base point and nudge count: the clearance
    # scan point by point, through arc_length
    clearance = BREAK_CLEARANCE_EPS * MACHINE_EPS
    far = 1 - clearance
    x = to_circle(x0)
    for attempt in range(MAX_NUDGES + 1):
        pts = iterate(m, x, n)
        arcs = [arc_length(b.location, p) for p in pts for b in m.breaks]
        if all(clearance < arc < far for arc in arcs):
            return pts, x, attempt
        x = to_circle(x + NUDGE)
    raise BreakCollision("reference scan gave up")


def _built_orbit(part):
    return list(part.orbit), part.x0, part.nudges


@pytest.mark.parametrize("name", ["pq_map", "pl_map"])
def test_orbit_landing_on_a_break_later(request, gcf, name):
    # start k steps back from the break c, so the k-th point is c itself;
    # rank 6 takes q_6 + q_5 = 21 points, rank 12 takes 377
    m = request.getfixturevalue(name)
    k, loc = 5, m.breaks[1].location
    x0 = retreat(m, to_circle(loc), 0, k)[0]
    assert abs(iterate(m, x0, k)[-1] - loc) < 8 * MACHINE_EPS
    with pytest.raises(BreakCollision):
        df_product(m, x0, 21)
    pts, used, nudges = _built_orbit(build_partition(m, gcf, x0, 6))
    assert (pts, used, nudges) == _reference_orbit_avoiding_breaks(m, x0, 20)
    assert nudges == 1 and used == to_circle(x0 + NUDGE)
    for x in (0.05, 0.31, 0.77):
        part = build_partition(m, gcf, x, 12)
        assert _built_orbit(part) == _reference_orbit_avoiding_breaks(m, x, 376)


# -- point-by-point reference for the column form of a partition ------------


def _reference_cells(m, cf, x0, n):
    """xi_n cell by cell: (rank_tag, index, left_index, right_index, left,
    length) tuples with an arc_length per cell, audited by a sorted
    successor map; returns the cells and the orbit."""
    q_n, q_nm1 = cf.q(n), cf.q(n - 1)
    total = q_n + q_nm1
    pts, _, _ = _reference_orbit_avoiding_breaks(m, x0, total - 1)
    cells = []
    for tag, count, step in ((n - 1, q_n, q_nm1), (n, q_nm1, q_n)):
        for i in range(count):
            li, ri = (i, i + step) if tag % 2 == 0 else (i + step, i)
            cells.append((tag, i, li, ri, pts[li], arc_length(pts[li], pts[ri])))
    order = sorted(range(total), key=pts.__getitem__)
    succ = {order[k]: order[(k + 1) % total] for k in range(total)}
    assert all(succ[c[2]] == c[3] for c in cells)
    assert len({c[2] for c in cells}) == total
    return cells, pts


def _reference_refinement(coarse, fine, fine_pts, cf, n):
    """Split counts and persisted cells by dictionary lookups and an
    explicit chain test; raises RefinementViolation like the old check."""
    k_next, q_n, q_nm1 = cf.quotients[n], cf.q(n), cf.q(n - 1)
    by_key = {(c[0], c[1]): c for c in fine}
    splits, persisted = [], 0
    for tag, i, li, ri, left, length in coarse:
        if tag == n - 1:
            pieces = [by_key[(n + 1, i)]]
            pieces += [by_key[(n, i + q_nm1 + s * q_n)] for s in range(k_next)]
            uses = Counter(idx for p in pieces for idx in p[2:4])
            assert set(uses.values()) <= {1, 2}
            assert sorted(idx for idx, c in uses.items() if c == 1) == sorted((li, ri))
            right = to_circle(left + length)
            for idx in uses:
                if idx not in (li, ri) and not in_arc(fine_pts[idx], left, right):
                    raise RefinementViolation(f"boundary point {idx} escapes cell {i}")
            splits.append(len(pieces))
        else:
            twin = by_key[(n, i)]
            assert twin[2:4] == (li, ri)
            if abs(twin[4] - left) > 1e-12 or abs(twin[5] - length) > 1e-12:
                raise RefinementViolation(f"rank-{n} cell {i} moved")
            persisted += 1
    return tuple(splits), persisted


@pytest.mark.parametrize("name", ["pq_map", "pl_map", "rot_map"])
def test_columns_match_point_by_point_reference(request, gcf, name):
    m = request.getfixturevalue(name)
    # 0.2 is the break a of both two-break maps: every rank nudges it once
    for x0 in (0.05, 0.2, 0.31, 0.77):
        deep = build_partition(m, gcf, x0, 14)
        for k in range(1, 15):
            cells, pts = _reference_cells(m, gcf, x0, k)
            part = build_partition(m, gcf, x0, k)
            cut = deep.coarsen(k)
            _, used, nudges = _reference_orbit_avoiding_breaks(m, x0, len(pts) - 1)
            assert part.nudges == deep.nudges
            for p in (part, cut):
                assert list(p.elements) == cells
                assert _built_orbit(p) == (pts, used, nudges)
                assert (p.n, p.q_n, p.q_nm1) == (k, gcf.q(k), gcf.q(k - 1))
                assert p.total_length() == sum_left_to_right(c[5] for c in cells)
                assert p.max_length() == max(c[5] for c in cells)
                assert p.min_length() == min(c[5] for c in cells)
            assert list(partition_rows(part)) == [(k, *c[:2], *c[4:]) for c in cells]


@pytest.mark.parametrize(
    "quotients, n_max, name",
    [
        ([1] * 30, 13, "pq_map"),
        ([1] * 30, 13, "rot_map"),
        ([1, 3] * 15, 9, "pq_map"),
        ([1, 3] * 15, 9, "rot_map"),
    ],
)
def test_refinement_matches_dict_reference(request, quotients, n_max, name):
    cf = ContinuedFraction.from_quotients(quotients)
    m = request.getfixturevalue(name)
    m = m.with_translation(
        cf.value
        if name == "rot_map"
        else tune_translation(m, cf, tol=1e-10).translation
    )
    for n in range(1, n_max + 1):
        fine = build_partition(m, cf, 0.05, n + 1)
        coarse = fine.coarsen(n)
        splits, persisted = _reference_refinement(
            _reference_cells(m, cf, 0.05, n)[0],
            *_reference_cells(m, cf, 0.05, n + 1),
            cf,
            n,
        )
        for c in (coarse, build_partition(m, cf, 0.05, n)):
            rep = check_refinement(c, fine)
            assert rep.k_next == cf.quotients[n]
            assert (rep.persisted, len(splits)) == (persisted, c.q_n)
            assert set(splits) == {rep.k_next + 1}


def test_refinement_of_a_different_map_fails(pq_map, pl_map, gcf):
    # same base point, but the fine orbit belongs to another map
    coarse = build_partition(pq_map, gcf, 0.05, 7)
    fine = build_partition(pl_map, gcf, 0.05, 8)
    with pytest.raises(RefinementViolation):
        _reference_refinement(
            _reference_cells(pq_map, gcf, 0.05, 7)[0],
            *_reference_cells(pl_map, gcf, 0.05, 8),
            gcf,
            7,
        )
    with pytest.raises(RefinementViolation):
        check_refinement(coarse, fine)


def test_refinement_catches_an_escaped_point_and_a_moved_cell(pq_map, gcf):
    fine = build_partition(pq_map, gcf, 0.05, 8)
    coarse = fine.coarsen(7)
    # push the interior point i + q_6 + q_7 of coarse cell i = 3 past its
    # right end, to 1.5 cell lengths from its left end
    left, length = coarse.elements.left[3], coarse.elements.length[3]
    orbit = list(fine.orbit)
    orbit[3 + gcf.q(6) + gcf.q(7)] = to_circle(left + 1.5 * length)
    escaped = fine._replace(orbit=tuple(orbit))
    with pytest.raises(RefinementViolation, match="escapes coarse cell 3"):
        check_refinement(coarse, escaped)
    # shift the left end of the fine rank-7 cell 2 alone
    lefts = list(fine.elements.left)
    lefts[2] += 1e-9
    el = fine.elements
    cells = CellTable(
        el.rank_tag, el.index, el.left_index, el.right_index, tuple(lefts), el.length
    )
    moved = fine._replace(elements=cells)
    with pytest.raises(RefinementViolation, match="rank-7 cell 2 moved"):
        check_refinement(coarse, moved)


@pytest.mark.parametrize("name", ["pq_map", "pl_map", "rot_map"])
def test_refinement_compares_persisted_cells_exactly(request, gcf, name):
    # separately built partitions of one base point pair the same orbit
    # points in the same order, so a persisted cell moved by one ulp fails
    m = request.getfixturevalue(name)
    for n in (5, 9, 13):
        coarse = build_partition(m, gcf, 0.05, n)
        fine = build_partition(m, gcf, 0.05, n + 1)
        assert check_refinement(coarse, fine).persisted == gcf.q(n - 1)
        el = fine.elements
        for column in ("left", "length"):
            columns = {name: getattr(el, name) for name in CellTable.__slots__}
            values = list(columns[column])
            values[1] = math.nextafter(values[1], 1.0)
            columns[column] = tuple(values)
            moved = fine._replace(elements=CellTable(**columns))
            with pytest.raises(RefinementViolation, match=f"rank-{n} cell 1 moved"):
                check_refinement(coarse, moved)


def test_coarsen_of_a_nudged_partition(pq_map, gcf):
    # the orbit of x0 hits the break c after 15 steps: rank 5 (13 points)
    # clears it alone, rank 8 (55 points) nudges the base point
    loc = pq_map.breaks[1].location
    x0 = retreat(pq_map, to_circle(loc), 0, 15)[0]
    assert build_partition(pq_map, gcf, x0, 5).nudges == 0
    deep = build_partition(pq_map, gcf, x0, 8)
    assert deep.nudges == 1 and deep.x0 == to_circle(x0 + NUDGE)
    for k in range(1, 9):
        cut = deep.coarsen(k)
        direct = build_partition(pq_map, gcf, deep.x0, k)
        assert cut.x0 == direct.x0 == deep.x0 and cut.nudges == 1
        assert cut.orbit == direct.orbit
        assert cut.elements == direct.elements
    assert check_refinement(deep.coarsen(7), deep).persisted == gcf.q(6)


def test_coarsen_refuses_a_foreign_rank(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 6)
    assert part.coarsen(6) is part
    for k in (0, 7):
        with pytest.raises(ValueError):
            part.coarsen(k)


@pytest.mark.parametrize(
    "t, n, cell",
    [
        (0.3, 5, "tag 4, index 0) endpoints 0->5"),
        (0.38, 8, "tag 8, index 0) endpoints 0->34"),
        (0.7, 7, "tag 6, index 0) endpoints 0->13"),
    ],
)
def test_adjacency_audit_names_the_first_misplaced_cell(gcf, t, n, cell):
    # a rotation by t does not have the golden mean's orbit order
    with pytest.raises(InvariantFailure) as err:
        build_partition(make_rotation(t), gcf, 0.05, n)
    assert str(err.value) == (
        f"element ({cell} are not circularly adjacent; "
        "orbit order does not match the rotation combinatorics"
    )


def test_build_partition_refuses_rank_0_and_a_short_fraction(pq_map, gcf):
    with pytest.raises(ValueError, match="partition rank must be >= 1"):
        build_partition(pq_map, gcf, 0.05, 0)
    short = ContinuedFraction.from_quotients(gcf.quotients[:5])
    with pytest.raises(RankTooShallow, match="need 6 partial quotients to build rank 6, have 5"):
        build_partition(pq_map, short, 0.05, 6)


def test_refinement_refuses_a_mismatched_pair(pq_map, gcf):
    coarse = build_partition(pq_map, gcf, 0.05, 6)
    with pytest.raises(ValueError, match="fine rank 8 must be coarse rank 6 plus one"):
        check_refinement(coarse, build_partition(pq_map, gcf, 0.05, 8))
    with pytest.raises(ValueError, match="different base points"):
        check_refinement(coarse, build_partition(pq_map, gcf, 0.06, 7))
    # the same denominators up to q_7, but cut from other fractions
    for quotients in (gcf.quotients[:7], gcf.quotients[:7] + (2,) * 23):
        other = ContinuedFraction.from_quotients(quotients)
        fine = build_partition(pq_map, other, 0.05, 7)
        with pytest.raises(ValueError, match="different continued fractions"):
            check_refinement(coarse, fine)


def test_cell_table_equals_only_a_table(pq_map, gcf):
    el = build_partition(pq_map, gcf, 0.05, 5).elements
    assert el == CellTable(**{name: getattr(el, name) for name in CellTable.__slots__})
    # a tuple of the same cells is no table: both sides decline, and
    # identity decides
    assert el != tuple(el)
