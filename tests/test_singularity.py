import inspect
import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import (
    FIRST_BREAK_AUDIT,
    GOLDEN,
    Arc,
    _reference_endpoint_condition,
    _reference_is_qn_small,
    qn_rows,
)

import circlebreak.crossratio
import circlebreak.measure
import circlebreak.rotation
from circlebreak.cli import main
from circlebreak.crossratio import Quadruple, calibrate_k1, distortion_chain
from circlebreak.errors import (
    CircleBreakError,
    ConfigError,
    HypothesisNotCertified,
    InvalidGeometry,
    InvariantFailure,
    PrecisionBudgetExceeded,
)
from circlebreak.maps import (
    BreakPoint,
    advance,
    evaluate,
    iterate,
    make_pl_two_break,
    make_pq_two_break,
    map_stats,
    retreat,
)
from circlebreak.measure import convergent_masses
from circlebreak.numerics import arc_length, to_circle
from circlebreak.partition import build_partition
from circlebreak.rotation import ContinuedFraction, tune_translation
from circlebreak.singularity import (
    MASS_REL_TOL,
    CoverTriple,
    ExperimentConfig,
    RegularCoverParams,
    SingularityReport,
    _check_hull_images,
    break_preimages,
    gf_gap,
    make_cover_params,
    mass_length_curve,
    mass_width,
    build_experiment_map,
    r6_bound,
    regular_cover_triple,
    singularity_report,
    solve_same_orbit,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

V25 = math.log(2.5)  # |log 2| + |log 0.8|


@pytest.fixture(scope="module")
def params25():
    return make_cover_params(2.0, 0.8, V25)


def test_zeta0_closed_form(params25):
    # 0.6 / (2 * 2.5 * 0.4)
    assert params25.zeta0 == pytest.approx(0.3, abs=1e-12)
    assert params25.sigma_product == pytest.approx(1.6)
    assert params25.gap_floor == pytest.approx(0.15, abs=1e-12)
    assert params25.c0 >= 1.0


def test_mirror_scales_zeta0(params25):
    mir = make_cover_params(1.0 / params25.sigma_a, 1.0 / params25.sigma_c, params25.v)
    assert mir.zeta0 == pytest.approx(params25.sigma_a * params25.zeta0, rel=1e-9)
    assert mir.sigma_a == pytest.approx(0.5)


def test_degenerate_product_collapses_constants():
    p = make_cover_params(2.0, 0.5, V25)
    assert p.degenerate
    assert (p.c0, p.zeta0) == (1.0, 1.0)
    assert p.gap_floor == 0.0


def test_single_genuine_break_rejected():
    with pytest.raises(InvalidGeometry):
        make_cover_params(2.0, 1.0, V25)


def test_r6_estimate_moderate():
    # alpha = 1, gamma = 0.2: R6 = 1 + 0.2/20
    assert r6_bound(2.0, 0.8) == 1.01
    assert r6_bound(0.5, 1.25) == 1.0  # the mirror's 0.50625, floored
    params = make_cover_params(2.0, 0.8, V25)
    assert params.r6 == 1.01
    assert params.c0 == pytest.approx(4.0 * 1.01 * 2.5 * 2.0 / 0.6, rel=1e-12)


def _phi2_ratio(sigma_a, sigma_c, xi_l, xi_p, z):
    # |Phi2 - 1| / (R6 (1/xi_l + 1/xi_p)) in exact arithmetic
    sa, sc, xl, xp, z = map(Fraction, (sigma_a, sigma_c, xi_l, xi_p, z))
    phi2 = (1 + xl) / (sa + xl) * (1 + xp) / (sc + (1 - sc) * z + xp)
    return abs(phi2 - 1) / (Fraction(r6_bound(sigma_a, sigma_c)) * (1 / xl + 1 / xp))


def test_r6_bound_holds_in_exact_arithmetic():
    # the bound is proven for every z in [0, 1], so it is checked at both
    # ends and inside, with no appeal to Phi2 being monotone in z
    rng = random.Random(13)
    for _ in range(1500):
        sa, sc = (math.exp(rng.uniform(math.log(0.03), math.log(32.0))) for _ in "ac")
        xl, xp = (10.0 ** rng.uniform(1.0, 7.0) for _ in "lp")
        for z in (0.0, 1.0, rng.random()):
            assert _phi2_ratio(sa, sc, xl, xp, z) <= 1
    # alpha = 2, gamma = 0: the ratio reaches 0.9987 of the bound, so a
    # looser constant fails here
    assert Fraction(998, 1000) < _phi2_ratio(3.0, 1.0, 1e4, 1e7, 0.5) <= 1
    # alpha = gamma = 0.97 at xi = 10: 0.9969 of the bound, which holds only
    # with the alpha gamma/20 term
    assert Fraction(996, 1000) < _phi2_ratio(0.03, 0.03, 10.0, 10.0, 0.0) <= 1


def test_gf_gap_value(params25):
    gap = gf_gap(params25, 100.0, 100.0, 0.0)
    assert gap == pytest.approx(0.5874572051042644, abs=1e-12)
    assert gap >= params25.gap_floor


def test_gf_gap_refuses_uncertified(params25):
    with pytest.raises(HypothesisNotCertified):
        gf_gap(params25, 5.0, 100.0, 0.0)
    with pytest.raises(HypothesisNotCertified):
        gf_gap(params25, 100.0, 100.0, 0.99)
    with pytest.raises(HypothesisNotCertified):
        gf_gap(params25, -1.0, 100.0, 0.0)


def test_gf_gap_degenerate_reports_without_floor():
    p = make_cover_params(2.0, 0.5, V25)
    gap = gf_gap(p, 1e6, 1e6, 0.0)
    assert gap < 1e-4  # G(x,2) G(x,1/2) -> 1 as x grows


def test_cover_triple_generic_case(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 7)
    t = regular_cover_triple(pq_map, part, break_preimages(pq_map, part))
    assert t.case_tag == "c_outside_U"
    assert not t.covers_second_break
    assert t.z1 < t.z2 < t.z3 < t.z4
    assert t.xi0 == pytest.approx(1.0)
    assert t.coord0 == 0.0
    assert 0 <= t.l_index < part.q_n
    assert t.quadruple.hull == pytest.approx(t.hull)


def test_report_uses_the_configs_cap(monkeypatch):
    # the tuning (directly and through the same-orbit solve) and the deep
    # partition are sized by the config's cap, not the default; the cap is
    # 1e5 because the tuning's orbits at rank 12's mass width pass 1e4 steps
    import circlebreak.singularity as sing

    caps = []
    for name in ("build_partition", "tune_translation"):

        def spy(*args, _name=name, _wrapped=getattr(sing, name), **kwargs):
            caps.append((_name, kwargs.get("cap")))
            return _wrapped(*args, **kwargs)

        monkeypatch.setattr(sing, name, spy)
    for steps in (None, 1):
        caps.clear()
        cfg = ExperimentConfig(
            kind="pq", n_min=12, n_max=12, same_orbit_steps=steps, cap=100_000
        )
        (row,) = singularity_report(cfg).rows
        assert (row.n, row.q_n) == (12, 233)
        assert sorted(caps) == [
            ("build_partition", 100_000),
            ("tune_translation", 100_000),
        ]


def test_cover_triple_same_orbit_case(so_map, gcf):
    stats = map_stats(so_map)
    params = make_cover_params(
        so_map.breaks[0].sigma, so_map.breaks[1].sigma, stats.v
    )
    part = build_partition(so_map, gcf, 0.05, 7)
    t = regular_cover_triple(so_map, part, break_preimages(so_map, part))
    assert t.case_tag == "c_in_U_left"
    assert t.covers_second_break
    assert t.p_index == t.l_index + 1
    assert t.xi0 == pytest.approx(params.c0, rel=1e-9)
    assert t.coord0 == pytest.approx(0.0, abs=params.zeta0)


@pytest.fixture(scope="module")
def pl_seam_map(gcf):
    """PL map with breaks on distinct orbits, the second one near the seam."""
    base = make_pl_two_break(0.4, 0.95, 1.5)
    return base.with_translation(tune_translation(base, gcf, tol=1e-10).translation)


SECOND_BREAK_CASES = [
    ("so_map", 0.8268521246720381, 5, "c_in_U_left", 5),
    ("so_map", 0.8639844696985152, 9, "c_in_U_left", 34),
    ("pl_so_map", 0.7776360863476505, 6, "c_in_U_left", 8),
    ("pl_seam_map", 0.14188767737138264, 8, "c_in_U_right", 24),
]


@pytest.mark.parametrize("name, x0, rank, tag, p", SECOND_BREAK_CASES)
def test_second_break_found_on_abar_orbit(request, gcf, name, x0, rank, tag, p):
    # cases from a random.Random(7) sweep of (x0, rank 5-12) that exited 4
    # with "second break covered at steps [p], expected []": c has two
    # preimages within q_n steps, and pulling it back along its own cell
    # took the one the hull around abar does not reach
    m = request.getfixturevalue(name)
    (row,) = qn_rows(m, gcf, x0, [rank])
    assert (row.case_tag, row.p_index) == (tag, p)


@pytest.fixture(scope="module")
def pq_tilted_map(gcf):
    """pq map with jump product 2.1 and its second break at 0.9."""
    base = make_pq_two_break(0.3, 0.9, 3.0, 0.7)
    return base.with_translation(tune_translation(base, gcf, tol=1e-10).translation)


def _hull_outcome(m, part, triple, res):
    """What the hull audit decides on the chain ``res``: "parity" or
    "overlap" for its two q_n-smallness failures, else "disjoint"."""
    try:
        _check_hull_images(m, part, triple, res)
    except InvariantFailure as e:
        for outcome, needle in (("parity", "parity endpoint"), ("overlap", "-small")):
            if needle in str(e):
                return outcome
    return "disjoint"


def _overlapped(part, res):
    """The chain with image j laid over image 0, for the first j that is
    neither 0 nor q_{n-1}: the images overlap, while the hull and its
    parity hop stay as they were."""
    j = next(j for j in range(1, part.q_n) if j != part.q_nm1)
    quads = list(res.quadruples)
    quads[j] = quads[0]
    return res._replace(quadruples=tuple(quads))


def _chain_verdicts(m, part, triple):
    """(q_n-small, parity criterion met) as the chain-based audit decides
    them.  For a q_n-small hull the audit names the criterion only on
    overlapping images, so its parity verdict is read off ``_overlapped``."""
    res = distortion_chain(triple.quadruple, m, part.q_n)
    outcome = _hull_outcome(m, part, triple, res)
    if outcome == "disjoint":
        overlapped = _hull_outcome(m, part, triple, _overlapped(part, res))
        return True, overlapped == "parity"
    return False, outcome == "parity"


def _reference_verdicts(m, cf, triple):
    """(q_n-small, parity criterion met) on orbits of the hull's two ends."""
    arc = Arc(to_circle(triple.z1), triple.hull)
    parity = _reference_endpoint_condition(m, cf, arc, triple.n)
    try:
        small = _reference_is_qn_small(m, cf, arc, triple.n)
    except InvariantFailure:
        small = False
    return small, parity


def test_chain_hull_audit_matches_the_reference(request, gcf):
    # 50 seeded (x0, rank 5-16) covers on each of six maps, and the
    # second-break cases: as built each is q_n-small within its parity
    # hop; widened to a random multiple of the rank's longest cell most
    # are neither.  Both ways the audit on the distortion chain's images
    # and the reference on two endpoint orbits reach the same verdicts
    rng = random.Random(30)
    names = (
        "pq_map", "pq_tilted_map", "pl_map", "pl_seam_map", "so_map", "pl_so_map"
    )
    cases = [(name, rng.random(), rng.randint(5, 16)) for name in names for _ in range(50)]
    cases += [case[:3] for case in SECOND_BREAK_CASES]
    widened = []
    for name, x0, rank in cases:
        m = request.getfixturevalue(name)
        part = build_partition(m, gcf, x0, rank)
        triple = regular_cover_triple(m, part, break_preimages(m, part))
        assert _chain_verdicts(m, part, triple) == (True, True)
        assert _reference_verdicts(m, gcf, triple) == (True, True)
        wide = triple._replace(z4=triple.z1 + rng.uniform(0.2, 2.0) * part.max_length())
        verdicts = _chain_verdicts(m, part, wide)
        assert verdicts == _reference_verdicts(m, gcf, wide), (name, x0, rank, wide.hull)
        widened.append(verdicts)
    assert len(cases) == 304
    assert widened.count((False, False)) > 100


def test_widened_hull_exits_4_naming_qn_small(monkeypatch, tmp_path, capsys):
    # a cover hull twice the rank's longest cell is not q_n-small; the
    # audit on the chain's images refuses it before any factor is read
    import circlebreak.singularity as sing

    build = sing.regular_cover_triple

    def widened(m, part, tables):
        t = build(m, part, tables)
        return t._replace(z4=t.z1 + 2.0 * part.max_length())

    monkeypatch.setattr(sing, "regular_cover_triple", widened)
    cfg = tmp_path / "pq.json"
    cfg.write_text(json.dumps({"kind": "pq", "n_min": 6, "n_max": 6}))
    out = tmp_path / "out"
    assert main(["singularity", "--config", str(cfg), "--out", str(out)]) == 4
    assert "is not q_6-small" in capsys.readouterr().err
    assert not out.exists()


def test_overlap_within_the_parity_hop_raises(pq_map, gcf):
    # a hull within one T^{q_{n-1}} hop is q_n-small, so images that
    # overlap all the same mean broken orbit combinatorics; ranks 5 and 6
    # take the hop from the left end and into the right end
    for n in (5, 6):
        part = build_partition(pq_map, gcf, 0.05, n)
        triple = regular_cover_triple(pq_map, part, break_preimages(pq_map, part))
        arc = Arc(to_circle(triple.z1), triple.hull)
        assert _reference_endpoint_condition(pq_map, gcf, arc, n)
        res = _overlapped(part, distortion_chain(triple.quadruple, pq_map, part.q_n))
        with pytest.raises(InvariantFailure, match=f"parity endpoint criterion at rank {n}"):
            _check_hull_images(pq_map, part, triple, res)


def test_hull_audit_runs_no_orbit(monkeypatch, pq_map, gcf):
    # the audit reads the chain's quadruples; its sum is the row's
    # image_len_sum
    part = build_partition(pq_map, gcf, 0.05, 9)
    triple = regular_cover_triple(pq_map, part, break_preimages(pq_map, part))
    res = distortion_chain(triple.quadruple, pq_map, part.q_n)
    calls = [_count_calls(monkeypatch, fn) for fn in (advance, retreat, evaluate)]
    total = _check_hull_images(pq_map, part, triple, res)
    assert calls == [[], [], []]
    assert total == sum(q.hull for q in res.quadruples[: part.q_n])
    assert total == qn_rows(pq_map, gcf, 0.05, [9])[0].image_len_sum


def test_cover_triple_needs_two_breaks(rot_map, gcf):
    part = build_partition(rot_map, gcf, 0.0, 6)
    with pytest.raises(InvalidGeometry):
        regular_cover_triple(rot_map, part, break_preimages(rot_map, part))


def test_qn_gaps_rotation_vanish(rot_map, gcf):
    rows = qn_rows(rot_map, gcf, 0.0, range(4, 9))
    for r in rows:
        assert r.case_tag == "break_free"
        assert r.gf_gap is None
        assert r.dist_qn_gap <= 1e-12
        assert r.image_len_sum <= 1.0 + 1e-9


def test_qn_gaps_generic_bounded_below(pq_map, gcf):
    rows = qn_rows(pq_map, gcf, 0.05, range(6, 10))
    for r in rows:
        assert r.case_tag == "c_outside_U"
        assert r.dist_qn_gap > 0.2
        assert r.image_len_sum <= 1.0 + 1e-9


def test_qn_gaps_same_orbit_certified(so_map, gcf):
    rows = qn_rows(so_map, gcf, 0.05, range(6, 10))
    for r in rows:
        assert r.case_tag == "c_in_U_left"
        assert r.gf_gap is not None
        assert r.gf_gap >= 0.15
        assert r.dist_qn_gap > 0.3


def test_lorenz_rotation_flat(rot_map, gcf):
    part = build_partition(rot_map, gcf, 0.0, 7)
    curve = mass_length_curve(part, convergent_masses(part, gcf, gcf.value))
    assert abs(curve.lorenz_90_length - 0.90) <= 2.0 / part.q_n
    end_len, end_mass = curve.points[-1]
    assert end_len == pytest.approx(1.0, abs=1e-9)
    assert end_mass == pytest.approx(1.0, abs=1e-9)
    assert max(abs(l - m) for l, m in curve.points) < 0.1


def test_lorenz_concentrates_for_pq(pq_map, gcf):
    shallow, deep = (
        build_partition(pq_map, gcf, 0.05, n) for n in (6, 10)
    )
    shallow = mass_length_curve(shallow, convergent_masses(shallow, gcf, GOLDEN))
    deep = mass_length_curve(deep, convergent_masses(deep, gcf, GOLDEN))
    assert deep.lorenz_90_length < shallow.lorenz_90_length < 0.90


def _reference_lorenz(part, masses):
    # cells sorted by (-density, rank_tag, index), summed one at a time
    cells = []
    for e, mass in zip(part.elements, masses):
        cells.append((-(mass / e.length), e.rank_tag, e.index, e.length, mass))
    pts, cum_len, cum_mass, hit = [(0.0, 0.0)], 0.0, 0.0, None
    for _, _, _, length, mass in sorted(cells):
        cum_len += length
        cum_mass += mass
        pts.append((cum_len, cum_mass))
        if hit is None and cum_mass >= 0.9 - 1e-12:
            hit = cum_len
    return tuple(pts), hit


@pytest.mark.parametrize("name", ["rot", "pq"])
def test_lorenz_matches_sorted_reference(request, gcf, name):
    m = request.getfixturevalue(name + "_map")
    # the rotation at x0 = 0 has cells of both ranks with equal density
    x0, rho = {"rot": (0.0, gcf.value), "pq": (0.05, GOLDEN)}[name]
    for n in range(2, 11):
        part = build_partition(m, gcf, x0, n)
        masses = convergent_masses(part, gcf, rho)
        curve = mass_length_curve(part, masses)
        assert (curve.points, curve.lorenz_90_length) == _reference_lorenz(
            part, masses
        )


def _same_orbit_residual(m, steps=1):
    c = m.breaks[1].location
    fa = iterate(m, m.breaks[0].location, steps)[-1]
    return min(arc_length(fa, c), arc_length(c, fa))


def test_same_orbit_map_realizes_relation(so_map, pl_so_map):
    # reference translations from a solve that placed c by alternating
    # tuning and re-placement; they hold c = f(a) only to 1e-9, so the
    # one-family solve may land anywhere within that of them
    for m, reference in (
        (so_map, 0.67764929970577559),
        (pl_so_map, 0.53478225383731515),
    ):
        assert abs(m.translation - reference) <= 1e-9
        assert _same_orbit_residual(m) == 0.0


@pytest.mark.parametrize(
    "kind, a, shape, wraps",
    [
        ("pq", 0.2, dict(sigma_a=2.0, sigma_c=0.8), False),
        ("pl", 0.2, dict(slope_ratio=2.0), False),
        # a + t passes 1, so c wraps below a
        ("pq", 0.9, dict(sigma_a=2.0, sigma_c=0.8), True),
    ],
    ids=["pq", "pl", "pq-wrapping"],
)
def test_same_orbit_one_step_tunes_once(monkeypatch, gcf, kind, a, shape, wraps):
    import circlebreak.singularity as sing

    calls = []
    tune = sing.tune_translation

    def counting(*args, **kwargs):
        calls.append(args)
        return tune(*args, **kwargs)

    monkeypatch.setattr(sing, "tune_translation", counting)
    m, tr = sing.solve_same_orbit(kind, a, gcf, **shape)
    assert len(calls) == 1
    assert m.translation == tr.translation
    assert m.breaks[0].location == a
    assert _same_orbit_residual(m) == 0.0
    assert (m.breaks[1].location < a) == wraps


@pytest.mark.parametrize(
    "kind, shape, reference",
    [
        ("pq", dict(sigma_a=2.0, sigma_c=0.8), 0.6936457639359019),
        ("pl", dict(slope_ratio=2.0), 0.5553289839588207),
    ],
    ids=["pq", "pl"],
)
def test_same_orbit_two_steps_runs_the_placement_loop(gcf, kind, shape, reference):
    # c = f_t^2(a) has no closed form in t, so c is placed by alternating
    # tuning with re-placement; the reference is that loop's translation
    m, _ = solve_same_orbit(kind, 0.2, gcf, m_steps=2, **shape)
    assert abs(m.translation - reference) <= 1e-9
    assert _same_orbit_residual(m, steps=2) <= 10 * 1e-9


def test_same_orbit_placement_uses_callers_cap(monkeypatch, gcf):
    # the m_steps placement orbits and every tuning are sized by the
    # caller's cap, not the default; the pq three-step case converges at
    # n_max 7
    import circlebreak.singularity as sing

    shape = dict(sigma_a=2.0, sigma_c=0.8, m_steps=3, tune_tol=mass_width(gcf, 7))
    caps = []
    tune = sing.tune_translation

    def spy(*args, **kwargs):
        caps.append(kwargs.get("cap"))
        return tune(*args, **kwargs)

    monkeypatch.setattr(sing, "tune_translation", spy)
    m, _ = solve_same_orbit("pq", 0.2, gcf, cap=1000, **shape)
    assert len(caps) > 1 and set(caps) == {1000}
    with pytest.raises(PrecisionBudgetExceeded, match="length 3 exceeds cap 2"):
        solve_same_orbit("pq", 0.2, gcf, cap=2, **shape)
    assert _same_orbit_residual(m, steps=3) <= 10 * 1e-9


def test_pl_same_orbit_distortion_gap_vanishes(pl_so_map, gcf):
    # Herman: both breaks on one orbit of a PL map give an AC measure, and
    # with c exactly f(a) the q_n-distortion gap is rounding only.  At
    # rank 19 the chain's rounding puts c 4e-9 alpha left of z2; taking
    # its offset as exactly 0 would move the predicted second-break factor
    # by 1.6e-9, past the audit's 1e-9 budget
    ranks = list(range(5, 13)) + [19]
    rows = qn_rows(pl_so_map, gcf, 0.05, ranks)
    assert [r.n for r in rows] == ranks
    for r in rows:
        assert r.case_tag == "c_in_U_left"
        assert r.dist_qn_gap <= 1e-12, f"rank {r.n}: gap {r.dist_qn_gap!r}"


def test_solve_same_orbit_validation(gcf):
    with pytest.raises(ValueError):
        solve_same_orbit("henon", 0.2, gcf, sigma_a=2.0, sigma_c=0.8)
    with pytest.raises(ValueError):
        solve_same_orbit("pq", 0.2, gcf, sigma_a=2.0, sigma_c=0.8, m_steps=0)


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="quadratic")
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="pq", n_min=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="pq", rho_quotients=tuple([1] * 5), n_max=12)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="pq", same_orbit_steps=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="pq", cap=0)
    # the tuning width is rank n_max's mass width, 1.41e-8 at 12, which the
    # golden bracket 20 is the first to meet; the rotation reads the same
    # bracket, so every kind needs its quotients
    golden = ContinuedFraction.from_quotients([1] * 30)
    assert mass_width(golden, 12) == pytest.approx(1.407e-8, rel=1e-3)
    assert golden.bracket_within(mass_width(golden, 12)) == 20
    for kind in ("pq", "pl", "rotation"):
        ExperimentConfig(kind=kind, rho_quotients=tuple([1] * 20), n_max=12)
        with pytest.raises(ConfigError, match="cannot certify"):
            ExperimentConfig(kind=kind, rho_quotients=tuple([1] * 19), n_max=12)
    # n_max 21 needs 2.4e-12; 22 needs 9.3e-13, which binary64 cannot
    # certify, so it is refused here, before any orbit runs
    ExperimentConfig(kind="pq", n_max=21)
    assert mass_width(golden, 22) == pytest.approx(9.3e-13, rel=1e-2)
    with pytest.raises(ConfigError, match="certifiable"):
        ExperimentConfig(kind="pq", n_max=22)
    # the width follows from n_max, so tune_tol and the measure-orbit keys
    # of the measure command (masses come from the convergent errors) mean
    # nothing here: exit 2, nothing written
    for key, value in (
        ("measure_points", 1200),
        ("drift_tol", 1e-6),
        ("tune_tol", 1e-10),
    ):
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({"kind": "rotation", "n_min": 4, "n_max": 6, key: value}))
        out = tmp_path / key
        out.mkdir()
        assert main(["singularity", "--config", str(cfg), "--out", str(out)]) == 2
        assert os.listdir(out) == []


def _count_calls(monkeypatch, fn):
    """Record the arguments, by name, of every call of fn through any
    circlebreak module binding."""
    calls = []
    sig = inspect.signature(fn)

    def counted(*args, **kwargs):
        calls.append(sig.bind(*args, **kwargs).arguments)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "circlebreak":
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


@pytest.mark.parametrize("kind", ["pq", "rotation"])
def test_report_encloses_rho_once_and_runs_no_measure_orbit(monkeypatch, kind):
    # one certificate: tuning to rank 8's mass width encloses rho, and the
    # masses of every rank read its bracket's midpoint; the rotation is not
    # tuned and reads the same bracket of its target
    cfg = ExperimentConfig(kind=kind, n_min=5, n_max=8)
    farey = _count_calls(monkeypatch, circlebreak.rotation.rho_farey)
    tunes = _count_calls(monkeypatch, circlebreak.rotation.tune_translation)
    masses = _count_calls(monkeypatch, circlebreak.measure.convergent_masses)
    orbits = _count_calls(monkeypatch, circlebreak.measure.conjugacy_values)
    rep = singularity_report(cfg)
    cf = ContinuedFraction.from_quotients(cfg.rho_quotients)
    width = 2.0 * MASS_REL_TOL / (cf.q(8) * (cf.q(8) + cf.q(9)))
    assert mass_width(cf, 8) == width
    assert [call["tol"] for call in tunes] == ([] if kind == "rotation" else [width])
    assert farey == [] and orbits == []
    n = cf.bracket_within(width)
    assert [call["rho"] for call in masses] == [cf.bracket(n).value] * 4
    diag = rep.to_json_dict()["diagnostics"]
    assert diag["rho_bracket"] == n
    assert diag["rho_bracket_width"] == 1 / (cf.q(n - 1) * cf.q(n)) <= width
    if kind == "rotation":
        assert diag["tune_bisections"] is None
    else:
        assert diag["tune_bisections"] > 0


@pytest.mark.parametrize(
    "shape",
    [dict(kind="pq"), dict(kind="pl", same_orbit_steps=1), dict(kind="rotation")],
    ids=["pq", "pl-same-orbit", "rotation"],
)
def test_report_runs_one_backward_orbit_per_break(monkeypatch, shape):
    # one retreat per break, as deep as the deepest rank needs, and every
    # rank's cover reads its preimages and d_n's backward point off it;
    # a rotation has no breaks to pull back
    cfg = ExperimentConfig(n_min=5, n_max=8, **shape)
    cf = ContinuedFraction.from_quotients(cfg.rho_quotients)
    m, _, _ = build_experiment_map(cfg, cf)
    walks = _count_calls(monkeypatch, retreat)
    singularity_report(cfg)
    steps = cf.q(8) + cf.q(7) - 1
    assert [(call["x"], call["n"]) for call in walks] == [
        (brk.location, steps) for brk in m.breaks
    ]
    if m.breaks:
        deep = build_partition(m, cf, cfg.x0, 8)
        tables = break_preimages(m, deep)
        walks.clear()
        for n in range(5, 9):
            regular_cover_triple(m, deep.coarsen(cf, n), tables)
        assert walks == []


def _reference_preimages(m, part):
    """(l, abar, p, the second break's first q_n preimages, d_n's backward
    point) by the per-rank walks the cover ran before it read the break
    tables: each break pulled back from itself, and abar pulled back
    q_{n-1} steps for d_n."""
    a_loc, c_loc = m.breaks[0].location, m.breaks[1].location
    l = int(part.elements.index[part.locate(a_loc)])
    abar = retreat(m, a_loc, 0, l)[0]
    pres = [c_loc]
    retreat(m, c_loc, 0, part.q_n - 1, pres)
    p = min(
        range(len(pres)),
        key=lambda k: min(arc_length(pres[k], abar), arc_length(abar, pres[k])),
    )
    return l, abar, p, pres, retreat(m, abar, 0, part.q_nm1)[0]


@pytest.mark.parametrize(
    "name, n_max",
    [("pq_main", 15), ("pq_same_orbit", 16), ("pl_generic", 16), ("pl_herman", 16)],
)
def test_break_tables_match_the_per_rank_walks(name, n_max):
    # the report's tables, built once at the deepest rank, give every
    # rank the bits of its own walks, and the cover reads nothing else of
    # them: tables holding only the walks' points, nan elsewhere, give the
    # same triple
    cfg = ExperimentConfig(**json.loads((CONFIG_DIR / f"{name}.json").read_text()))
    cf = ContinuedFraction.from_quotients(cfg.rho_quotients)
    m, _, _ = build_experiment_map(cfg, cf)
    deep = build_partition(m, cf, cfg.x0, n_max)
    tables = break_preimages(m, deep)
    assert [len(t) for t in tables] == [deep.q_n + deep.q_nm1] * 2
    for n in range(5, n_max + 1):
        part = deep.coarsen(cf, n)
        l, abar, p, pres, bwd = _reference_preimages(m, part)
        t = regular_cover_triple(m, part, tables)
        assert (t.l_index, t.p_index) == (l, p)
        got = (t.abar, tables[1][p], tables[0][l + part.q_nm1])
        assert [x.hex() for x in got] == [x.hex() for x in (abar, pres[p], bwd)], n
        assert t.cbar in (t.abar, pres[p])
        only = [[math.nan] * len(table) for table in tables]
        only[0][l], only[0][l + part.q_nm1], only[1][: part.q_n] = abar, bwd, pres
        assert regular_cover_triple(m, part, only) == t


@pytest.mark.parametrize(
    "m, rank",
    [
        (make_pq_two_break(0.2, 0.6, 2.0, 0.8, 0.6949140919153628), 13),
        (
            make_pl_two_break(
                0.2, to_circle(0.2 + 0.5347822538316107), 2.0, 0.5347822538316107
            ),
            20,
        ),
    ],
    ids=["pq-rank-13", "pl-same-orbit-rank-20"],
)
def test_first_break_audit_follows_the_break_off_z2(gcf, m, rank):
    # the chain's rounding carries the tracked z2 off the first break by
    # 1e-16 to 2.5e-14; predicting with the offset-0 slice g_func missed the
    # measured factor beyond the audit's budget at these ranks
    (row,) = qn_rows(m, gcf, 0.05, [rank])
    assert row.n == rank


@pytest.mark.parametrize("name", ["pq_map", "so_map"])
def test_qn_row_chains_each_rank_once(monkeypatch, request, gcf, name):
    # the hull audit (q_n-smallness, parity cross-check, break hits) reads
    # the distortion chain's own quadruples and runs no orbit of its own
    m = request.getfixturevalue(name)
    calibrate_k1(m)  # cached; its sample runs one-step chains of its own
    chains = _count_calls(monkeypatch, circlebreak.crossratio.chain_points)
    rows = qn_rows(m, gcf, 0.05, range(5, 9))
    assert [call["steps"] for call in chains] == [r.q_n for r in rows]


def test_report_rotation_baseline():
    cfg = ExperimentConfig(kind="rotation", label="baseline", n_min=4, n_max=7)
    rep = singularity_report(cfg)
    assert rep.verdict == "AC_BASELINE"
    assert not rep.gap_floor_ok
    assert rep.min_upper_gap < 1e-8
    assert [r.n for r in rep.rows] == [4, 5, 6, 7]
    assert len(rep.curves) == 4
    doc = rep.to_json_dict()
    assert doc["verdict"] == "AC_BASELINE"
    assert doc["map_params"] == {"translation": rep.translation}


def test_report_pq_singular_evidence():
    cfg = ExperimentConfig(kind="pq", label="pq-short", n_min=5, n_max=8)
    rep = singularity_report(cfg)
    assert rep.verdict == "SINGULAR_EVIDENCE"
    assert rep.gap_floor_ok
    assert rep.min_upper_gap > 0.1
    assert rep.v == pytest.approx(2 * (math.log(2) + abs(math.log(0.8))))
    lorenz = [r.lorenz_90_length for r in rep.rows]
    assert lorenz[-1] < lorenz[0]
    for row in rep.rows:
        assert row.case_tag == "c_outside_U"


@pytest.mark.parametrize("rho, n_max", [("golden", 12), ("silver", 10)])
@pytest.mark.parametrize("slope_ratio", [1.5, 3.0])
def test_pl_same_orbit_maps_never_read_singular(slope_ratio, rho, n_max):
    # breaks on one orbit make the invariant measure AC (Herman 1979), and
    # their jump ratios cancel along f^{q_n}: the gap rule alone must keep
    # these maps out of SINGULAR_EVIDENCE
    quotients = {"golden": [1] * 30, "silver": [2] * 30}[rho]
    cfg = ExperimentConfig(
        kind="pl",
        slope_ratio=slope_ratio,
        same_orbit_steps=1,
        rho_quotients=quotients,
        n_min=5,
        n_max=n_max,
    )
    assert singularity_report(cfg).verdict != "SINGULAR_EVIDENCE"


# What stops each cell of the jump-ratio grid that item 14's one-sided
# cover width breaks; a cell that stops for another reason fails outright.
ROUNDING_FLOOR = "leaves cover widths at the rounding floor"
JUMP_GRID_STOPS = {
    **dict.fromkeys(
        [(0.5, 0.1), (0.5, 3.0), (1.25, 0.1)]
        + [(2.0, sigma_c) for sigma_c in (0.1, 0.3, 0.45, 0.55)]
        + [(4.0, sigma_c) for sigma_c in (0.45, 0.55, 0.7, 0.8, 1.6, 3.0)],
        FIRST_BREAK_AUDIT,
    ),
    (4.0, 0.1): ROUNDING_FLOOR,
    (4.0, 0.3): ROUNDING_FLOOR,
}


def _jump_grid_cells():
    for sigma_a in (0.5, 1.25, 2.0, 4.0):
        for sigma_c in (0.1, 0.3, 0.45, 0.55, 0.7, 0.8, 0.9, 1.6, 3.0):
            if sigma_a * sigma_c == 1.0:
                continue  # no theorem at hand for a jump product of 1
            cause = JUMP_GRID_STOPS.get((sigma_a, sigma_c))
            marks = ()
            if cause is not None:
                marks = pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason=f"stops: {cause!r}, from the one-sided cover's "
                    "width zeta0*h_v (ROADMAP item 14)",
                )
            yield pytest.param(sigma_a, sigma_c, cause, marks=marks, id=f"{sigma_a}-{sigma_c}")


@pytest.mark.parametrize("sigma_a, sigma_c, cause", list(_jump_grid_cells()))
def test_verdicts_across_the_jump_ratios(sigma_a, sigma_c, cause):
    # the paper's theorem: breaks on different orbits with
    # sigma_a * sigma_c != 1 make the invariant measure singular
    cfg = ExperimentConfig(
        kind="pq", a=0.2, c=0.6, x0=0.05, sigma_a=sigma_a, sigma_c=sigma_c, n_min=5, n_max=8
    )
    try:
        rep = singularity_report(cfg)
    except CircleBreakError as exc:
        if cause is None or cause not in str(exc):
            pytest.fail(f"{type(exc).__name__} for a reason other than ROADMAP item 14: {exc}")
        raise AssertionError(str(exc)) from exc
    if rep.verdict != "SINGULAR_EVIDENCE":
        pytest.fail(f"verdict {rep.verdict}, min_upper_gap {rep.min_upper_gap!r}")


@pytest.mark.parametrize(
    "shape",
    [
        dict(kind="pq", same_orbit_steps=1),
        dict(kind="pl", same_orbit_steps=1),
        dict(kind="pq", c=0.7),
        dict(kind="pq", a=1.2, c=1.7),
    ],
    ids=["pq-same-orbit", "pl-same-orbit", "pq-generic", "pq-outside-unit"],
)
def test_report_gives_the_maps_second_break(shape):
    # a same-orbit solve places c itself at f(a), so the configured c
    # (default 0.6) is not the map's; a generic map keeps the config's
    # breaks, reduced mod 1
    cfg = ExperimentConfig(label="c-report", n_min=5, n_max=6, **shape)
    cf = ContinuedFraction.from_quotients(cfg.rho_quotients)
    m, _, _ = build_experiment_map(cfg, cf)
    params = singularity_report(cfg).to_json_dict()["map_params"]
    a, c = params["a"], params["c"]
    assert (a, c) == (m.breaks[0].location, m.breaks[1].location)
    assert a == to_circle(cfg.a)
    if cfg.same_orbit_steps is None:
        assert c == to_circle(cfg.c)
    else:
        assert c == iterate(m, cfg.a, 1)[-1]
        assert c != cfg.c


def test_report_with_a_nudged_base_point():
    # x0 = T^-30 of the break c: the rank-8 orbit (55 points) meets it, the
    # rank-5 orbit (13 points) does not; every rank starts from the one
    # nudged base point
    cfg = ExperimentConfig(kind="pq", label="pq-short", n_min=5, n_max=8)
    cf = ContinuedFraction.from_quotients(cfg.rho_quotients)
    m, _, _ = build_experiment_map(cfg, cf)
    x0 = retreat(m, to_circle(m.breaks[1].location), 0, 30)[0]
    assert build_partition(m, cf, x0, 8).nudges == 1
    assert build_partition(m, cf, x0, 5).nudges == 0
    rep = singularity_report(ExperimentConfig(**{**cfg._asdict(), "x0": x0}))
    assert [(r.n, r.q_n) for r in rep.rows] == [(n, cf.q(n)) for n in range(5, 9)]


def test_equal_maps_hit_the_caches():
    # the caches keyed by a map compare by value: a twin built on its own
    # compares and hashes equal, so it reads the entries of the first map
    m = make_pq_two_break(0.137, 0.771, 1.7, 0.6, 0.3)
    twin = make_pq_two_break(0.137, 0.771, 1.7, 0.6).with_translation(0.3)
    assert twin is not m and twin == m and hash(twin) == hash(m)
    for cached in (map_stats, calibrate_k1):
        first = cached(m)
        hits = cached.cache_info().hits
        assert cached(twin) is first
        assert cached.cache_info().hits == hits + 1


def test_records_refuse_assignment(pq_map, gcf):
    m = pq_map
    part = build_partition(m, gcf, 0.05, 4)
    cfg = ExperimentConfig(kind="pq", n_max=6)
    records = [
        (m, "translation"),
        (m.breaks[0], "location"),
        (map_stats(m), "v"),
        (Quadruple(0.0, 0.1, 0.2, 0.3), "z1"),
        (gcf, "quotients"),
        (part, "orbit"),
        (part.elements, "left"),
        (cfg, "n_max"),
    ]
    for record, field in records:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        assert getattr(record, field) is before


def test_validated_records_refuse_bad_values():
    # ExperimentConfig and Quadruple have their own tests; the list-valued
    # config quotients come back as a tuple
    cfg = ExperimentConfig(kind="pq", n_min=5, n_max=6, rho_quotients=[1] * 20)
    assert type(cfg) is ExperimentConfig and cfg.rho_quotients == (1,) * 20
    with pytest.raises(InvalidGeometry):
        BreakPoint(1.0, 2.0, 1.0)
    with pytest.raises(InvalidGeometry):
        BreakPoint(0.5, 2.0, 2.0)
    for d_minus, d_plus in ((-1.0, 2.0), (2.0, 0.0), (math.nan, 2.0)):
        with pytest.raises(InvalidGeometry, match="must be positive"):
            BreakPoint(0.5, d_minus, d_plus)
    params = make_cover_params(2.0, 0.8, V25)._asdict()
    assert RegularCoverParams(**params) == make_cover_params(2.0, 0.8, V25)
    for bad in ({"c0": 0.5}, {"zeta0": 0.0}, {"zeta0": 1.5}):
        with pytest.raises(InvalidGeometry):
            RegularCoverParams(**{**params, **bad})
    triple = dict(
        n=5, q_n=5, z1=0.0, z2=0.1, z3=0.2, z4=0.3, case_tag="a_only",
        l_index=0, p_index=0, abar=0.1, cbar=0.1, xi0=1.0, coord0=0.0,
    )
    assert CoverTriple(**triple).hull == pytest.approx(0.3)
    for bad in ({"case_tag": "b_only"}, {"z3": 0.05}, {"z4": 1.5}):
        with pytest.raises(InvalidGeometry):
            CoverTriple(**{**triple, **bad})
    rep = singularity_report(cfg)
    fields = rep._asdict()
    assert SingularityReport(**fields) == rep
    with pytest.raises(InvariantFailure, match="strictly increasing"):
        SingularityReport(**{**fields, "rows": rep.rows[::-1]})
    negative = rep.rows[0]._replace(dist_qn_gap=-1.0)
    with pytest.raises(InvariantFailure, match="negative"):
        SingularityReport(**{**fields, "rows": (negative,) + rep.rows[1:]})
