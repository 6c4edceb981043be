import dataclasses
import math

import pytest

from conftest import GOLDEN

from circlebreak.crossratio import Quadruple, distortion_chain
from circlebreak.errors import (
    BracketingTooCoarse,
    ConfigError,
    HypothesisNotCertified,
    InvalidGeometry,
    InvariantFailure,
)
from circlebreak.maps import iterate, map_stats
from circlebreak.measure import conjugacy_values
from circlebreak.partition import build_partition
from circlebreak.rotation import ContinuedFraction, RotationEstimate
from circlebreak.singularity import (
    Enclosure,
    ExperimentConfig,
    RegularCoverParams,
    conjugacy_distortion_probe,
    estimate_r6,
    gf_gap,
    make_cover_params,
    mass_length_curve,
    mirror_params,
    qn_distortion_experiment,
    build_experiment_map,
    regular_cover_triple,
    singularity_report,
)

V25 = math.log(2.5)  # |log 2| + |log 0.8|


@pytest.fixture(scope="module")
def params25():
    return make_cover_params(2.0, 0.8, V25)


@pytest.fixture(scope="module")
def rot_om(rot_map, gcf):
    rho = RotationEstimate(
        value=gcf.value, lower=gcf.value, upper=gcf.value, method="fixed"
    )
    return conjugacy_values(rot_map, rho, 0.0, 400)


@pytest.fixture(scope="module")
def pq_om(pq_map):
    rho = RotationEstimate(
        value=GOLDEN, lower=GOLDEN - 1e-10, upper=GOLDEN + 1e-10, method="tuned"
    )
    return conjugacy_values(pq_map, rho, 0.05, 380)


def test_zeta0_closed_form(params25):
    # 0.6 / (2 * 2.5 * 0.4)
    assert params25.zeta0 == pytest.approx(0.3, abs=1e-12)
    assert params25.sigma_product == pytest.approx(1.6)
    assert params25.gap_floor == pytest.approx(0.15, abs=1e-12)
    assert params25.c0 >= 1.0


def test_mirror_scales_zeta0(params25):
    mir = mirror_params(params25)
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


def test_zeta0_recomputed_on_construction(params25):
    with pytest.raises(InvariantFailure):
        RegularCoverParams(
            c0=params25.c0,
            zeta0=0.5,
            v=params25.v,
            sigma_a=2.0,
            sigma_c=0.8,
            r6_hat=params25.r6_hat,
        )


def test_r6_estimate_moderate():
    r6 = estimate_r6(2.0, 0.8)
    assert 1.0 < r6 < 4.0
    pinned = make_cover_params(2.0, 0.8, V25, r6_hat=2.0)
    assert pinned.c0 == pytest.approx(4.0 * 2.0 * 2.5 * 2.0 / 0.6, rel=1e-12)


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
    t = regular_cover_triple(pq_map, gcf, part)
    assert t.case_tag == "c_outside_U"
    assert not t.covers_second_break
    assert t.z1 < t.z2 < t.z3 < t.z4
    assert t.xi0 == pytest.approx(1.0)
    assert t.coord0 == 0.0
    assert 0 <= t.l_index < part.q_n
    assert t.quadruple.hull == pytest.approx(t.hull)


def test_qn_experiment_uses_callers_cap(monkeypatch, pq_map, gcf):
    # partition, cover triple and chain orbits (q_12 = 233 steps) are all
    # sized by the caller's cap, not the default
    monkeypatch.setattr("circlebreak.maps.DEFAULT_ORBIT_CAP", 100)
    (row,) = qn_distortion_experiment(pq_map, gcf, 0.05, [12], cap=1000)
    assert (row.n, row.q_n) == (12, 233)


def test_cover_triple_same_orbit_case(so_map, gcf):
    stats = map_stats(so_map)
    params = make_cover_params(
        so_map.breaks[0].sigma, so_map.breaks[1].sigma, stats.v
    )
    part = build_partition(so_map, gcf, 0.05, 7)
    t = regular_cover_triple(so_map, gcf, part, params=params)
    assert t.case_tag == "c_in_U_left"
    assert t.covers_second_break
    assert t.p_index == t.l_index + 1
    assert t.xi0 == pytest.approx(params.c0, rel=1e-9)
    assert t.coord0 == pytest.approx(0.0, abs=params.zeta0)


def test_cover_triple_needs_two_breaks(rot_map, gcf):
    part = build_partition(rot_map, gcf, 0.0, 6)
    with pytest.raises(InvalidGeometry):
        regular_cover_triple(rot_map, gcf, part)


def test_qn_gaps_rotation_vanish(rot_map, gcf):
    rows = qn_distortion_experiment(rot_map, gcf, 0.0, range(4, 9))
    for r in rows:
        assert r.case_tag == "break_free"
        assert r.gf is None
        assert r.gap <= 1e-12
        assert r.image_len_sum <= 1.0 + 1e-9


def test_qn_gaps_generic_bounded_below(pq_map, gcf):
    rows = qn_distortion_experiment(pq_map, gcf, 0.05, range(6, 10))
    for r in rows:
        assert r.case_tag == "c_outside_U"
        assert r.gap > 0.2
        assert r.image_len_sum <= 1.0 + 1e-9


def test_qn_gaps_same_orbit_certified(so_map, gcf):
    rows = qn_distortion_experiment(so_map, gcf, 0.05, range(6, 10))
    for r in rows:
        assert r.case_tag == "c_in_U_left"
        assert r.gf is not None
        assert r.gf >= 0.15
        assert r.gap > 0.3


def test_qn_experiment_rejects_empty_range(pq_map, gcf):
    with pytest.raises(ValueError):
        qn_distortion_experiment(pq_map, gcf, 0.05, [])


def test_enclosure_basics():
    e = Enclosure(0.5, 1.5)
    assert e.width == 1.0 and e.midpoint == 1.0
    assert e.contains(0.5) and e.contains(1.5) and not e.contains(1.6)
    with pytest.raises(InvariantFailure):
        Enclosure(2.0, 1.0)


def _orbit_quadruple(om, q_n, stride=3):
    # Consecutive-in-order orbit points whose indices leave room for q_n
    # more steps, so the image points are exact orbit hits as well.
    pos, idx = om.sorted_pos, om.sorted_idx
    limit = om.n_points - q_n
    for k in range(len(pos) - 3 * stride):
        picks = range(k, k + 3 * stride + 1, stride)
        if all(idx[j] < limit for j in picks):
            return Quadruple(*(pos[j] for j in picks))
    raise AssertionError("no index window left for the image quadruple")


def test_probe_rotation_trivial(rot_om):
    q = _orbit_quadruple(rot_om, 13)
    res = conjugacy_distortion_probe(rot_om, q, q_n=13)
    assert res.dist_phi.width == 0.0
    assert res.dist_phi_qn.width == 0.0
    # orbit points carry ~n_points ulps of iterate rounding against the
    # once-rounded phi values; cross-ratios divide by gaps of a few 1e-3
    assert res.dist_phi.midpoint == pytest.approx(1.0, abs=1e-10)
    assert res.dist_phi_qn.midpoint == pytest.approx(1.0, abs=1e-10)
    assert res.identity_residual <= 1e-13
    assert res.ratio.midpoint == pytest.approx(1.0, abs=1e-10)


def test_probe_brackets_chain_distortion(pq_om, pq_map):
    pos = pq_om.sorted_pos
    k = 30
    q = Quadruple(pos[k], pos[k + 5], pos[k + 10], pos[k + 15])
    res = conjugacy_distortion_probe(pq_om, q, q_n=13)
    chain = distortion_chain(q, pq_map, 13)
    assert res.ratio.lower - 1e-9 <= chain.total <= res.ratio.upper + 1e-9
    assert res.identity_residual <= 1e-12


def test_probe_coarse_orbit_refused(pq_om, pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 8)
    t = regular_cover_triple(pq_map, gcf, part)
    with pytest.raises(BracketingTooCoarse):
        conjugacy_distortion_probe(pq_om, t)


def test_probe_needs_qn_for_plain_quadruple(pq_om):
    pos = pq_om.sorted_pos
    with pytest.raises(ValueError):
        conjugacy_distortion_probe(
            pq_om, Quadruple(pos[0], pos[5], pos[10], pos[15])
        )


def test_lorenz_rotation_flat(rot_om, rot_map, gcf):
    part = build_partition(rot_map, gcf, 0.0, 7)
    curve = mass_length_curve(rot_om, part)
    assert abs(curve.lorenz_90_length - 0.90) <= 2.0 / part.q_n
    end_len, end_mass = curve.points[-1]
    assert end_len == pytest.approx(1.0, abs=1e-9)
    assert end_mass == pytest.approx(1.0, abs=1e-9)
    assert max(abs(l - m) for l, m in curve.points) < 0.1


def test_lorenz_concentrates_for_pq(pq_om, pq_map, gcf):
    shallow = mass_length_curve(pq_om, build_partition(pq_map, gcf, 0.05, 6))
    deep = mass_length_curve(pq_om, build_partition(pq_map, gcf, 0.05, 10))
    assert deep.lorenz_90_length < shallow.lorenz_90_length < 0.90


def _reference_lorenz(om, part, threshold):
    # cells sorted by (-density, rank_tag, index), summed one at a time
    cells = []
    for e in part.elements:
        mass = om.arc_mass(e.left_index, e.right_index)
        cells.append((-(mass / e.length), int(e.rank_tag), int(e.index), e.length, mass))
    pts, cum_len, cum_mass, hit = [(0.0, 0.0)], 0.0, 0.0, None
    for _, _, _, length, mass in sorted(cells):
        cum_len += float(length)
        cum_mass += float(mass)
        pts.append((cum_len, cum_mass))
        if hit is None and cum_mass >= threshold - 1e-12:
            hit = cum_len
    return tuple(pts), hit


@pytest.mark.parametrize("name", ["rot", "pq"])
def test_lorenz_matches_sorted_reference(request, gcf, name):
    m = request.getfixturevalue(name + "_map")
    om = request.getfixturevalue(name + "_om")
    for n in range(2, 11):
        part = build_partition(m, gcf, om.x0, n)
        for threshold in (0.5, 0.9):
            curve = mass_length_curve(om, part, threshold=threshold)
            assert (curve.points, curve.lorenz_90_length) == _reference_lorenz(
                om, part, threshold
            )


def test_lorenz_threshold_validated(rot_om, rot_map, gcf):
    part = build_partition(rot_map, gcf, 0.0, 5)
    with pytest.raises(ValueError):
        mass_length_curve(rot_om, part, threshold=1.2)


def test_same_orbit_map_realizes_relation(so_map):
    from circlebreak.numerics import arc_length
    from circlebreak.singularity import solve_same_orbit

    pl_so, _ = solve_same_orbit("pl", 0.2, [1] * 30, slope_ratio=2.0)
    # reference translations from a solve that tuned every placement round
    # at the full tune_tol; placement fixes c only to tol = 1e-9, so a solve
    # may land anywhere within that of them
    for m, reference in (
        (so_map, 0.67764929970577559),
        (pl_so, 0.53478225383731515),
    ):
        assert abs(m.translation - reference) <= 1e-9
        c = m.breaks[1].location
        fa = iterate(m, m.breaks[0].location, 1)[-1]
        assert min(arc_length(fa, c), arc_length(c, fa)) <= 10 * 1e-9


def test_solve_same_orbit_validation():
    from circlebreak.singularity import solve_same_orbit

    with pytest.raises(ValueError):
        solve_same_orbit("henon", 0.2, [1] * 20, sigma_a=2.0, sigma_c=0.8)
    with pytest.raises(ValueError):
        solve_same_orbit(
            "pq", 0.2, [1] * 20, sigma_a=2.0, sigma_c=0.8, m_steps=0
        )


def test_experiment_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="quadratic")
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="pq", n_min=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="pq", rho_quotients=tuple([1] * 5), n_max=12)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="pq", threshold=1.2)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="pq", same_orbit_steps=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="pq", measure_points=1)


def test_report_rotation_baseline():
    cfg = ExperimentConfig(
        kind="rotation", label="baseline", n_min=4, n_max=7, measure_points=400
    )
    rep = singularity_report(cfg)
    assert rep.verdict == "AC_BASELINE"
    assert not rep.gap_floor_ok and not rep.lorenz_trend_ok
    assert rep.min_upper_gap < 1e-8
    assert [r.n for r in rep.rows] == [4, 5, 6, 7]
    assert len(rep.curves) == 4
    doc = rep.to_json_dict()
    assert doc["verdict"] == "AC_BASELINE"
    assert doc["map_params"] == {"translation": rep.translation}


def test_report_pq_singular_evidence():
    cfg = ExperimentConfig(
        kind="pq", label="pq-short", n_min=5, n_max=8, measure_points=800
    )
    rep = singularity_report(cfg)
    assert rep.verdict == "SINGULAR_EVIDENCE"
    assert rep.gap_floor_ok and rep.lorenz_trend_ok
    assert rep.min_upper_gap > 0.1
    assert rep.v == pytest.approx(2 * (math.log(2) + abs(math.log(0.8))))
    lorenz = [r.lorenz_90_length for r in rep.rows]
    assert lorenz[-1] < lorenz[0]
    for row in rep.rows:
        assert row.case_tag == "c_outside_U"


def test_report_with_a_nudged_base_point():
    # x0 = T^-30 of the break c: the rank-8 orbit (55 points) meets it, the
    # rank-5 orbit (13 points) does not; every rank and the measure orbit
    # start from the one nudged base point
    cfg = ExperimentConfig(
        kind="pq", label="pq-short", n_min=5, n_max=8, measure_points=800
    )
    m, _, _ = build_experiment_map(cfg)
    cf = ContinuedFraction.from_quotients(cfg.rho_quotients)
    x0 = iterate(m, m.breaks[1].location, 30, direction="backward")[-1]
    assert build_partition(m, cf, x0, 8).nudges == 1
    assert build_partition(m, cf, x0, 5).nudges == 0
    rep = singularity_report(dataclasses.replace(cfg, x0=x0))
    assert [(r.n, r.q_n) for r in rep.rows] == [(n, cf.q(n)) for n in range(5, 9)]
