import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import circlebreak.rotation
from circlebreak.errors import NotBracketed, PrecisionBudgetExceeded, TolUnreachable
from circlebreak.maps import advance, make_pl_two_break, make_pq_two_break, make_rotation
from circlebreak.numerics import DEFAULT_ORBIT_CAP, MACHINE_EPS
from circlebreak.rotation import (
    RATIONAL_CUTOFF,
    ContinuedFraction,
    _bracket_quotients,
    _compare_to_target,
    _sign,
    cf_expand_convergents,
    cf_quotients_of_fraction,
    rho_farey,
    rho_iterate_estimate,
    tune_translation,
)

from conftest import GOLDEN

FIB = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233]


def test_cf_golden_fibonacci():
    cf = ContinuedFraction.from_quotients([1] * 12)
    assert [cf.q(n) for n in range(13)] == FIB
    assert cf.value == pytest.approx(GOLDEN, abs=1e-5)


def test_cf_recursion_exact():
    cf = ContinuedFraction.from_quotients([2, 7, 1, 4, 1, 1, 3, 9])
    for n in range(2, cf.depth + 1):
        k = cf.quotients[n - 1]
        assert cf.q(n) == k * cf.q(n - 1) + cf.q(n - 2)
        assert cf.p(n) == k * cf.p(n - 1) + cf.p(n - 2)


def test_cf_alternating_enclosure():
    cf = cf_expand_convergents(GOLDEN, 20)
    for n in range(1, cf.depth):
        err = abs(GOLDEN - cf.p(n) / cf.q(n))
        assert err < 1.0 / (cf.q(n) * cf.q(n + 1))
        side = cf.p(n) / cf.q(n) - GOLDEN
        side_next = cf.p(n + 1) / cf.q(n + 1) - GOLDEN
        assert side * side_next < 0


def test_cf_expand_examples():
    assert cf_expand_convergents(1 / 3).quotients == (3,)
    cf = cf_expand_convergents(0.25)
    assert cf.quotients == (4,)
    assert (cf.p(1), cf.q(1)) == (1, 4)
    golden = cf_expand_convergents(GOLDEN, 20)
    assert golden.quotients == (1,) * 20


def test_continued_fractions_refuse_values_outside_their_domain():
    with pytest.raises(ValueError, match="partial quotients must be >= 1"):
        ContinuedFraction.from_quotients([1, 0, 2])
    for fr in (Fraction(0), Fraction(1), Fraction(3, 2), Fraction(-1, 3)):
        with pytest.raises(ValueError, match="strictly between 0 and 1"):
            cf_quotients_of_fraction(fr)
    for rho in (0.0, 1.0, -0.25, math.nan):
        with pytest.raises(ValueError, match="rho must lie strictly between 0 and 1"):
            cf_expand_convergents(rho)


def test_rho_estimates_refuse_an_empty_walk(rot_map):
    with pytest.raises(ValueError, match="n must be >= 1"):
        rho_iterate_estimate(rot_map, 0)
    with pytest.raises(ValueError, match="depth must be >= 1"):
        rho_farey(rot_map, depth=0)


def test_rho_iterate_rotation_third():
    est = rho_iterate_estimate(make_rotation(1 / 3), 300)
    assert abs(est.value - 1 / 3) <= 1 / 300
    assert est.lower <= 1 / 3 <= est.upper


def test_rho_iterate_rotation_golden():
    est = rho_iterate_estimate(make_rotation(GOLDEN), 10_000)
    assert est.lower <= GOLDEN <= est.upper
    assert est.width <= 2e-4


def test_rho_methods_agree_untuned_pq():
    m = make_pq_two_break(0.2, 0.6, 2.0, 0.8, translation=0.6)
    est_it = rho_iterate_estimate(m, 20_000)
    est_fa, _ = rho_farey(m, depth=25)
    assert est_fa.lower <= est_it.upper and est_it.lower <= est_fa.upper


def test_rho_farey_detects_one_third():
    est, cf = rho_farey(make_rotation(1 / 3), depth=40)
    assert est.rational == (1, 3)
    assert est.value == pytest.approx(1 / 3, abs=0)
    assert cf.quotients == (3,)


def test_rho_farey_golden_quotients():
    est, cf = rho_farey(make_rotation(GOLDEN), depth=22)
    assert cf.quotients[:10] == (1,) * 10
    assert [cf.q(n) for n in range(10)] == FIB[:10]
    assert est.lower <= GOLDEN <= est.upper


def test_rho_farey_tuned_pl_matches_rotation(pl_map):
    _, cf = rho_farey(pl_map, depth=20)
    assert cf.quotients[:8] == (1,) * 8


def _quotients_from_moves(moves) -> list:
    """Partial quotients read off a Stern-Brocot descent path.

    The path toward x in (0,1) spells L^{k1-1} R^{k2} L^{k3} R^{k4} ...; only
    finished runs are reported (the last run may still be growing).
    rho_farey read its quotients this way until it read them off the
    final bracket; kept as the reference for that read-off.
    """
    if not moves:
        return []
    runs = []
    cur, cnt = moves[0], 1
    for mv in moves[1:]:
        if mv == cur:
            cnt += 1
        else:
            runs.append((cur, cnt))
            cur, cnt = mv, 1
    # the final (cur, cnt) run is unfinished and is dropped
    complete = runs
    ks = []
    if not complete:
        return ks
    if complete[0][0] == "L":
        # path L^{k1-1} R^{k2} L^{k3} ...
        ks.append(complete[0][1] + 1)
        rest = complete[1:]
    else:
        # an immediate R means k1 = 1 and the R-run is k2 in full
        ks.append(1)
        rest = complete
    ks.extend(cnt for _, cnt in rest)
    return ks


def _descent(rng):
    """A seeded Stern-Brocot path of depth 0-60, in runs of 1-8 moves."""
    depth = rng.randint(0, 60)
    moves = []
    mv = rng.choice("LR")
    while len(moves) < depth:
        moves += mv * rng.randint(1, 8)
        mv = "L" if mv == "R" else "R"
    return moves[:depth]


def test_bracket_quotients_match_the_descent_path():
    rng = random.Random(23)
    paths = [_descent(rng) for _ in range(3000)] + [["R"] * k for k in range(8)]
    for moves in paths:
        m0 = rng.randint(-2, 2)
        pl, ql, ph, qh = m0, 1, m0 + 1, 1
        for mv in moves:
            if mv == "R":
                pl, ql = pl + ph, ql + qh
            else:
                ph, qh = pl + ph, ql + qh
        assert _bracket_quotients(pl, ql, ph, qh, m0) == _quotients_from_moves(moves)


def test_rho_farey_width_stop(rot_map, pq_map):
    w = 1e-9
    for m in (rot_map, pq_map):
        est, _ = rho_farey(m, width=w)
        assert est.upper - est.lower <= w
        # the width stop halts the same descent a fixed depth runs further
        deep, _ = rho_farey(m, depth=26)
        assert deep.width < est.width
        assert est.lower <= deep.lower and deep.upper <= est.upper


def test_rho_farey_width_out_of_cap(pq_map):
    with pytest.raises(PrecisionBudgetExceeded):
        rho_farey(pq_map, width=1e-9, cap=5000)
    with pytest.raises(ValueError):
        rho_farey(pq_map, width=0.0)


@given(st.floats(min_value=0.01, max_value=0.99, allow_nan=False))
def test_farey_enclosure_sound_for_rotations(t):
    est, _ = rho_farey(make_rotation(t), depth=18)
    if est.rational is not None:
        p, q = est.rational
        assert abs(Fraction(p, q) - Fraction(t)) < Fraction(4 * q, 10**15)
    else:
        assert est.lower <= t <= est.upper


def test_rho_monotone_in_translation():
    base = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    vals = []
    for i in range(50):
        t = 0.3 + 0.4 * i / 49
        vals.append(rho_iterate_estimate(base.with_translation(t), 500).value)
    assert all(b >= a - 2e-3 for a, b in zip(vals, vals[1:]))


def test_tune_rotation_family_is_identity(gcf):
    res = tune_translation(make_rotation(0.0), gcf, tol=1e-10)
    assert res.translation == pytest.approx(GOLDEN, abs=1e-10)
    assert res.certified_tol <= 1e-10


def test_tuned_maps_certified(pq_map, pl_map, gcf):
    for m in (pq_map, pl_map):
        est, _ = rho_farey(m, depth=25)
        assert est.lower - 1e-10 <= gcf.value <= est.upper + 1e-10


@pytest.mark.parametrize("tol", [1e-13, 0.0, math.nan])
def test_tune_refuses_a_tolerance_below_the_floor(gcf, tol):
    with pytest.raises(ValueError, match="not certifiable in binary64"):
        tune_translation(make_rotation(0.0), gcf, tol=tol)


def test_tune_returns_a_start_end_already_within(gcf):
    # tol 0.5 asks only for the golden bracket [1/2, 1].  The rotation's
    # lower start end already lies in it; this map's lower end has rho
    # below 1/2, and its upper end lies in it.
    rot = tune_translation(make_rotation(0.0), gcf, tol=0.5)
    assert (rot.translation, rot.bisections) == (gcf.value - 1e-9, 0)
    m = make_pq_two_break(0.2, 0.6, 4.0, 0.1)
    res = tune_translation(m, gcf, tol=0.5)
    assert res.bisections == 0 and res.translation > gcf.value
    tuned = m.with_translation(res.translation)
    assert _compare_to_target(tuned, gcf, 2, DEFAULT_ORBIT_CAP) == "within"


@pytest.mark.parametrize("shift, widened", [(0.7, 0), (-0.7, 1)])
def test_tune_widens_a_start_bracket_that_misses(gcf, shift, widened):
    # the family runs ``shift`` off the map whose displacements seed the
    # start bracket, so one start end reads the wrong side and moves out
    # by 0.5 until it reads its own
    m = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    tried = []

    def family(t):
        tried.append(t)
        return m.with_translation(t + shift)

    res = tune_translation(m, gcf, tol=1e-6, family=family)
    step = 0.5 if widened else -0.5
    assert tried[2] == tried[widened] + step
    n = gcf.bracket_within(1e-6)
    assert _compare_to_target(family(res.translation), gcf, n, DEFAULT_ORBIT_CAP) == "within"


def test_tune_refuses_a_family_it_cannot_bracket(gcf):
    # every member has rho 0.1: the upper end never reads "high"
    with pytest.raises(NotBracketed, match="could not bracket target"):
        tune_translation(make_rotation(0.0), gcf, tol=1e-6, family=lambda t: make_rotation(0.1))


def test_tune_gives_up_on_a_family_that_jumps_over_the_target(gcf):
    # rho jumps from 0.1 to 0.9 at the target: no member is within, and
    # the bisection gives up after its budget
    def jump(t):
        return make_rotation(0.1 if t < gcf.value else 0.9)

    with pytest.raises(TolUnreachable, match="no certification after 200 bisections"):
        tune_translation(make_rotation(0.0), gcf, tol=1e-6, family=jump)


def test_tune_rejects_rational_target():
    # 1/4 = [4] has the single bracket [0, 1/4]: no tolerance below 1/4
    with pytest.raises(ValueError):
        tune_translation(make_rotation(0.0), ContinuedFraction.from_quotients([4]))


def test_tune_cap_exhaustion(gcf):
    base = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    with pytest.raises(PrecisionBudgetExceeded):
        tune_translation(base, gcf, tol=1e-10, cap=2000)


def test_tune_certifies_the_last_bracket_of_the_given_quotients():
    # [1]*16 reaches 7e-7 only at its last bracket (q_15, q_16) = (987, 1597),
    # 6.3e-7 wide; a float re-expansion of its value loses that bracket
    cf = ContinuedFraction.from_quotients([1] * 16)
    base = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    res = tune_translation(base, cf, tol=7e-7)
    lo, hi = sorted((cf.fraction(15), cf.fraction(16)))
    assert (res.rho.lower, res.rho.upper) == (float(lo), float(hi))
    assert res.rho.width == pytest.approx(1 / (987 * 1597))
    est, _ = rho_farey(base.with_translation(res.translation), width=1e-9)
    assert lo <= est.upper and est.lower <= hi


class _ListTracker:
    """Reference for the orbit walks of 0: the whole orbit of 0 as lists of
    points and windings, extended one step at a time and read by index."""

    def __init__(self, m):
        self.m = m
        self.points, self.winds = [0.0], [0]

    def lift_minus(self, p, q):
        pts, winds = self.points, self.winds
        while len(pts) <= q:
            x, w = advance(self.m, pts[-1], winds[-1], 1)
            pts.append(x)
            winds.append(w)
        return pts[q] + (winds[q] - p)


def _reference_compare(ref, target, n, cap):
    """The oracle as it tested brackets before: bracket k tests both its
    ends, lower end first, so each end it shares with bracket k - 1 is
    tested twice; every value is read off the list orbit ``ref``."""

    def sign(p, q):
        if q > cap:
            raise PrecisionBudgetExceeded(f"orbit length {q} exceeds cap {cap}")
        s = ref.lift_minus(p, q)
        if abs(s) <= RATIONAL_CUTOFF * MACHINE_EPS * q:
            return 0
        return 1 if s > 0 else -1

    convs = target.convergents
    for k in range(1, n + 1):
        lo, hi = (convs[k - 1], convs[k]) if k % 2 else (convs[k], convs[k - 1])
        if sign(*lo) <= 0:
            return "low"
        if sign(*hi) >= 0:
            return "high"
    return "within"


def _outcome(compare, *args):
    """The answer of a comparison, or the message of its cap error."""
    try:
        return compare(*args)
    except PrecisionBudgetExceeded as e:
        return f"PrecisionBudgetExceeded: {e}"


TUNED_MAPS = ["pq_map", "pl_map", "so_map", "pl_so_map", "rot_map"]


@pytest.mark.parametrize("name", TUNED_MAPS)
def test_tracker_matches_list_reference_at_convergents(monkeypatch, request, gcf, name):
    # the walk of _compare_to_target tests each convergent once and answers
    # as the two-tests-per-bracket reference does, around the tuned t and
    # at convergents of the target, where the rotation hits exactly
    m = request.getfixturevalue(name)
    tests, signs = [], set()

    def counted(*args):
        tests.append(args)
        signs.add(_sign(*args))
        return _sign(*args)

    monkeypatch.setattr(circlebreak.rotation, "_sign", counted)
    answers = set()
    ts = [m.translation + d for d in (-1e-3, -1e-7, 0.0, 1e-7, 1e-3)]
    for t in ts + [float(gcf.fraction(k)) for k in (2, 5, 8)]:
        mt = m.with_translation(t)
        ref = _ListTracker(mt)
        for n in (1, 2, 5, 9, 26):
            for cap in (DEFAULT_ORBIT_CAP, 1, 50, 1000):
                tests.clear()
                got = _outcome(_compare_to_target, mt, gcf, n, cap)
                assert got == _outcome(_reference_compare, ref, gcf, n, cap)
                assert len(tests) <= n + 1
                answers.add(got)
    assert {"low", "high", "within"} <= answers
    assert any(a.startswith("PrecisionBudgetExceeded") for a in answers)
    assert name != "rot_map" or 0 in signs


@pytest.mark.parametrize("name", TUNED_MAPS)
def test_tracker_matches_list_reference_at_farey_mediants(monkeypatch, request, name):
    m = request.getfixturevalue(name)
    reads = []

    def recording(x, w, p, q):
        reads.append((x, w, p, q))
        return _sign(x, w, p, q)

    monkeypatch.setattr(circlebreak.rotation, "_sign", recording)
    rho_farey(m, width=1e-10)
    ref = _ListTracker(m)
    assert len(reads) > 20
    for x, w, p, q in reads:
        assert (x + (w - p)).hex() == ref.lift_minus(p, q).hex()
        assert (x.hex(), w) == (ref.points[q].hex(), ref.winds[q])


def test_tracker_query_past_cap_runs_no_step(monkeypatch, pq_map, gcf):
    steps = []

    def counted(m, x, w, n, *rest):
        steps.append(n)
        return advance(m, x, w, n, *rest)

    monkeypatch.setattr(circlebreak.rotation, "advance", counted)
    with pytest.raises(PrecisionBudgetExceeded):
        rho_iterate_estimate(pq_map, 101, cap=100)
    assert steps == []
    rho_iterate_estimate(pq_map, 100, cap=100)
    assert steps == [100]
    # the walk over the golden convergents stops at q_10 = 89: q_11 = 144
    # is past the cap, and its test runs no step
    steps.clear()
    with pytest.raises(PrecisionBudgetExceeded, match="144 exceeds cap 100"):
        _compare_to_target(pq_map, gcf, 26, 100)
    assert sum(steps) == 89
