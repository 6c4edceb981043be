import hashlib
import importlib
import inspect
import json
import math
import os
import pkgutil
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    CASE_TAGS,
    FIRST_BREAK_AUDIT,
    GOLDEN,
    ROOT,
    Arc,
    _reference_endpoint_condition,
    _reference_is_qn_small,
    beta_masses,
    direct_distortion,
    qn_rows,
    rank_parts,
    reference_locate,
    sum_left_to_right,
    telescoping_bound,
)

import circlebreak
import circlebreak.crossratio
import circlebreak.measure
import circlebreak.numerics
import circlebreak.rotation
import circlebreak.singularity
from circlebreak.cli import main
from circlebreak.crossratio import Quadruple, cross_ratio, distortion_chain
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
from circlebreak.numerics import arc_length, to_circle
from circlebreak.partition import build_partition
from circlebreak.rotation import ContinuedFraction, tune_translation
from circlebreak.singularity import (
    ExperimentConfig,
    RegularCoverParams,
    _check_hull_images,
    _generator_quadruple,
    _qn_row,
    break_preimages,
    gf_gap,
    make_cover_params,
    mass_length_curve,
    build_experiment_map,
    r6_bound,
    regular_cover_triple,
    singularity_report,
    solve_same_orbit,
    tuning_width,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

V25 = math.log(2.5)  # |log 2| + |log 0.8|


@pytest.fixture(scope="module")
def params25():
    return make_cover_params(2.0, 0.8, V25)


def test_zeta0_closed_form(params25):
    # 0.6 / (2 * 2.5 * 0.4)
    assert params25.zeta0 == pytest.approx(0.3, abs=1e-12)
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
    with pytest.raises(InvalidGeometry, match="^sigma_c = 1 leaves only one genuine break$"):
        make_cover_params(2.0, 1 + 2**-52, V25)


def test_a_tiny_sigma_a_keeps_both_breaks():
    # sigma_a (sigma_c - 1) is 1e-16 here, yet sigma_c = 2 is a genuine
    # break: the test reads sigma_c, not that product
    p = make_cover_params(1e-16, 2.0, V25)
    assert not p.degenerate
    assert (p.sigma_a, p.sigma_c) == (1e-16, 2.0)


# jump ratios log-uniform over the positive floats, 2**-1074 to 2**1023.9
JUMP_RATIOS = st.floats(min_value=-1074.0, max_value=1023.9).map(lambda e: 2.0**e)


@given(JUMP_RATIOS, JUMP_RATIOS, st.floats(min_value=0.0, max_value=1e3, exclude_min=True))
def test_cover_params_keep_their_bounds(sigma_a, sigma_c, v):
    # RegularCoverParams checks nothing: c0 >= 1 and zeta0 <= 1 are the
    # clamps, and a finite c0 leaves zeta0 > 0
    try:
        p = make_cover_params(sigma_a, sigma_c, v)
    except (InvalidGeometry, PrecisionBudgetExceeded):
        return
    assert p.c0 >= 1.0
    assert 0.0 < p.zeta0 <= 1.0


def test_cover_params_refuse_constants_past_the_float_range():
    # 5e-324 * 0.9 rounds back to 5e-324, so zeta0's denominator
    # |sigma_a sigma_c - sigma_a| is 0; e^800 overflows, and C0 with it
    rounds = "^sigma_a \\* sigma_c rounds back to sigma_a = 5e-324$"
    with pytest.raises(PrecisionBudgetExceeded, match=rounds):
        make_cover_params(5e-324, 0.9, V25)
    past = "^cover constant C0 is past the float range at v = 800.0$"
    with pytest.raises(PrecisionBudgetExceeded, match=past):
        make_cover_params(2.0, 0.8, 800.0)


def test_cover_params_refuse_what_is_not_positive():
    for sigma_a, sigma_c in ((-2.0, 0.8), (2.0, 0.0), (math.nan, 0.8), (2.0, math.nan)):
        with pytest.raises(InvalidGeometry, match="^jump ratios must be positive$"):
            make_cover_params(sigma_a, sigma_c, V25)
    for v in (0.0, -1.0, math.nan):
        with pytest.raises(InvalidGeometry, match="^log-derivative variation must be positive$"):
            make_cover_params(2.0, 0.8, v)


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
    for xi_l, xi_p in ((-1.0, 100.0), (math.nan, 100.0), (100.0, math.nan)):
        with pytest.raises(HypothesisNotCertified, match="^gap ratios must be positive$"):
            gf_gap(params25, xi_l, xi_p, 0.0)


def test_gf_gap_refuses_a_product_under_its_floor():
    # C0 = 1 is far below what the lemma needs at sigma_a = 1.1 and
    # sigma_c = 0.8: at large ratios G*F tends to 1.1 (0.8 + 0.2 z), which
    # is 1 at z = 6/11, so the gap falls under |0.88 - 1|/4
    params = RegularCoverParams(c0=1.0, zeta0=1.0, v=0.01, sigma_a=1.1, sigma_c=0.8, r6=1.0)
    assert params.gap_floor == pytest.approx(0.03)
    assert gf_gap(params, 1e6, 1e6, 1.0) > params.gap_floor
    floor = f"undercuts the floor {params.gap_floor!r}$"
    with pytest.raises(InvariantFailure, match=r"^certified product gap \d\.\d+e-0\d " + floor):
        gf_gap(params, 1e6, 1e6, 6 / 11)


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
    assert (t.z3 - t.z2) / (t.z2 - t.z1) == pytest.approx(1.0)
    assert 0 <= t.l_index < part.q_n
    assert t.quadruple == (t.z1, t.z2, t.z3, t.z4)


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
    # c = f(a) in floating point, so its preimage is abar itself, at z2
    assert t.cbar_is_abar
    assert (t.z3 - t.z2) / (t.z2 - t.z1) == pytest.approx(params.c0, rel=1e-9)


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
    (part,), tables = rank_parts(m, gcf, x0, [rank])
    # the row runs the hull audit, which checks the break hits
    row = _qn_row(m, part, tables)
    triple = regular_cover_triple(m, part, tables)
    assert (row.case_tag, triple.p_index) == (tag, p)


@pytest.fixture(scope="module")
def pq_tilted_map(gcf):
    """pq map with jump product 2.1 and its second break at 0.9."""
    base = make_pq_two_break(0.3, 0.9, 3.0, 0.7)
    return base.with_translation(tune_translation(base, gcf, tol=1e-10).translation)


def _hull_arc(triple):
    return Arc(to_circle(triple.z1), triple.z4 - triple.z1)


def _overlapped(part, res):
    """The chain with image j laid over image 0, for the first j that is
    neither 0 nor q_{n-1}: the images overlap, while the hull and its
    parity hop stay as they were."""
    j = next(j for j in range(1, part.q_n) if j != part.q_nm1)
    quads = list(res.quadruples)
    quads[j] = quads[0]
    return res._replace(quadruples=tuple(quads))


def _chain_is_qn_small(m, part, triple):
    """Whether the hull audit on the distortion chain finds the hull
    q_n-small; a refusal for the breaks' hits still counts as small."""
    res = distortion_chain(triple.quadruple, m, part.q_n)
    try:
        _check_hull_images(m, part, triple, res)
    except InvariantFailure as e:
        return "-small" not in str(e)
    return True


def _reference_is_small(m, cf, triple, n):
    """Whether the hull is q_n-small on orbits of its two ends; the
    reference's refusal of an overlap within the parity hop reads as not
    small, as the audit names it."""
    try:
        return _reference_is_qn_small(m, cf, _hull_arc(triple), n)
    except InvariantFailure:
        return False


def test_chain_hull_audit_matches_the_reference(request, gcf):
    # 50 seeded (x0, rank 5-16) covers on each of six maps, and the
    # second-break cases: as built each is q_n-small within its parity
    # hop; widened to a random multiple of the rank's longest cell most
    # are not.  Both ways the audit on the distortion chain's images and
    # the reference on two endpoint orbits reach the same verdict
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
        assert _chain_is_qn_small(m, part, triple)
        assert _reference_is_small(m, gcf, triple, rank)
        assert _reference_endpoint_condition(m, gcf, _hull_arc(triple), rank)
        wide = triple._replace(z4=triple.z1 + rng.uniform(0.2, 2.0) * part.max_length())
        small = _chain_is_qn_small(m, part, wide)
        assert small == _reference_is_small(m, gcf, wide, rank), (name, x0, rank, wide.z4)
        widened.append(small)
    assert len(cases) == 304
    assert widened.count(False) > 100


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


def _singularity_error(tmp_path, capsys, doc):
    """(exit code, stderr) of a singularity run of ``doc`` that must write
    nothing."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["singularity", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()
    return code, capsys.readouterr().err


def test_preimages_of_a_detuned_map_exit_4_naming_the_roundtrip(monkeypatch, tmp_path, capsys):
    # the break tables of the map shifted by 1e-7: abar stays inside its
    # window, but its forward steps miss the break
    import circlebreak.singularity as sing

    real = sing.break_preimages
    monkeypatch.setattr(
        sing,
        "break_preimages",
        lambda m, deep: real(m.with_translation(m.translation + 1e-7), deep),
    )
    code, err = _singularity_error(tmp_path, capsys, {"kind": "pq", "n_min": 6, "n_max": 6})
    assert code == 4
    assert err == "error: roundtrip through 2 backward steps moved the break by 1.824e-07\n"


def test_a_preimage_outside_its_window_is_refused(pq_map, gcf):
    # every entry of the first break's table half a turn from x0: none of
    # the first q_n lies in the window, so no cell index can be read off
    part = build_partition(pq_map, gcf, 0.05, 6)
    pre_a, pre_c = break_preimages(pq_map, part)
    far = [to_circle(part.x0 + 0.5)] * len(pre_a)
    # at an even rank the window runs from x_{q_{n-1}} to x_{q_n}
    w_left, w_right = part.orbit[part.q_nm1], part.orbit[part.q_n]
    escape = (
        rf"^no preimage of break 0\.2 within q_n={part.q_n} steps lies in the "
        rf"window \[{w_left!r}, {w_right!r}\]$"
    )
    with pytest.raises(InvariantFailure, match=escape):
        regular_cover_triple(pq_map, part, [far, pre_c])


def _reference_l(m, part):
    """Orbit index of the cell of ``part`` that holds the first break,
    found from the cell table by ``reference_locate``."""
    return part.elements.index[reference_locate(part.elements, m.breaks[0].location)]


def _baseline_pq_draws(count):
    # ROADMAP Baseline's pq sweep draws: a, c, the jump ratios, the
    # quotients and x0
    rng = random.Random(17)
    for _ in range(count):
        a = rng.random()
        c = (a + rng.uniform(0.05, 0.95)) % 1.0
        while True:
            sa, sc = math.exp(rng.uniform(-1.6, 1.6)), math.exp(rng.uniform(-1.6, 1.6))
            if abs(sa * sc - 1) > 0.05:
                break
        qs = [rng.choice([1, 1, 1, 2, 3]) for _ in range(30)]
        x0 = rng.random()
        yield dict(kind="pq", a=a, c=c, sigma_a=sa, sigma_c=sc, rho_quotients=qs, x0=x0)


def _baseline_pl_draws(count, same_orbit_steps):
    # ROADMAP Baseline's PL sweep draws; each class re-seeds, so both
    # classes use the same draws
    rng = random.Random(23)
    for _ in range(count):
        a = rng.random()
        off = rng.uniform(0.05, 0.95)
        sgn = rng.choice([-1, 1])
        mag = rng.uniform(0.2, 2.3)
        qs = [rng.choice([1, 1, 1, 2]) for _ in range(30)]
        x0 = rng.random()
        doc = dict(kind="pl", a=a, slope_ratio=math.exp(sgn * mag), rho_quotients=qs, x0=x0)
        if same_orbit_steps is None:
            doc["c"] = (a + off) % 1.0
        else:
            doc["same_orbit_steps"] = same_orbit_steps
        yield doc


def test_the_cover_reads_the_cell_index_of_the_first_break():
    # the first in-window entry of the break table is the orbit index of
    # the cell that holds the break, on sweep maps at ranks 2-10; a rank
    # whose cover stops at its width floor is not compared
    docs = [*_baseline_pq_draws(30), *_baseline_pl_draws(20, None), *_baseline_pl_draws(20, 1)]
    compared = 0
    for doc in docs:
        cfg = ExperimentConfig(n_min=2, n_max=10, **doc)
        cf = ContinuedFraction.from_quotients(cfg.rho_quotients)
        m, _, _ = build_experiment_map(cfg, cf)
        deep = build_partition(m, cf, cfg.x0, cfg.n_max)
        tables = break_preimages(m, deep)
        for n in range(2, 11):
            part = deep.coarsen(n)
            try:
                triple = regular_cover_triple(m, part, tables)
            except PrecisionBudgetExceeded as exc:
                assert "leaves cover widths at the rounding floor" in str(exc), (doc, n)
                continue
            assert triple.l_index == _reference_l(m, part), (doc, n)
            compared += 1
    # 70 maps at 9 ranks; one pq map stops at the width floor at all nine
    assert compared == 621


def test_breaks_a_cover_width_apart_exit_4(tmp_path, capsys):
    # c = a + 1e-9: both breaks pull back at the same step to within the
    # cover's core, where no factor can be told from the other
    doc = {"kind": "pq", "c": 0.200000001, "n_min": 5, "n_max": 6}
    code, err = _singularity_error(tmp_path, capsys, doc)
    assert code == 4
    assert err == (
        "error: both breaks pull back to the same time step; the one-step "
        "factors cannot be separated\n"
    )


def test_a_cover_that_misnames_its_first_break_step_exits_4(monkeypatch, tmp_path, capsys):
    import circlebreak.singularity as sing

    build = sing.regular_cover_triple

    def late(m, part, tables):
        t = build(m, part, tables)
        return t._replace(l_index=t.l_index + 1)

    monkeypatch.setattr(sing, "regular_cover_triple", late)
    code, err = _singularity_error(tmp_path, capsys, {"kind": "pq", "n_min": 6, "n_max": 6})
    assert code == 4
    assert err == "error: first break covered at steps [2], expected [3]\n"


def test_a_cover_on_the_wrong_side_of_the_second_break_exits_4(monkeypatch, tmp_path, capsys):
    # the same-orbit cover at rank 6 holds c left of abar; read as the
    # right-hand cover, the chain finds c in no interval that case states
    import circlebreak.singularity as sing

    build = sing.regular_cover_triple

    def mirrored(m, part, tables):
        t = build(m, part, tables)
        assert t.case_tag == "c_in_U_left"
        return t._replace(case_tag="c_in_U_right")

    monkeypatch.setattr(sing, "regular_cover_triple", mirrored)
    doc = {"kind": "pq", "same_orbit_steps": 1, "n_min": 6, "n_max": 6}
    code, err = _singularity_error(tmp_path, capsys, doc)
    assert code == 4
    assert err == "error: second break left its stated interval along the chain\n"


def test_overlapping_generator_images_exit_4(monkeypatch, tmp_path, capsys):
    # a break-free map's quadruple of hull 0.9 has q_4 = 5 images
    import circlebreak.singularity as sing

    monkeypatch.setattr(
        sing,
        "_generator_quadruple",
        lambda part: Quadruple(part.x0, part.x0 + 0.3, part.x0 + 0.6, part.x0 + 0.9),
    )
    doc = {"kind": "rotation", "n_min": 4, "n_max": 4}
    code, err = _singularity_error(tmp_path, capsys, doc)
    assert code == 4
    assert err == "error: hull iterates overlap: total image length 4.5\n"


def test_a_same_orbit_residual_past_its_bound_exits_5(monkeypatch, tmp_path, capsys):
    # f(a) read 1e-6 off the second break
    import circlebreak.singularity as sing

    def off(m, x, w, n, pts=None):
        y, winding = advance(m, x, w, n, pts)
        return y + 1e-6, winding

    monkeypatch.setattr(sing, "advance", off)
    doc = {"kind": "pq", "same_orbit_steps": 1, "n_min": 6, "n_max": 6}
    code, err = _singularity_error(tmp_path, capsys, doc)
    assert code == 5
    assert err == "error: same-orbit residual 1.000e-06 exceeds 1.0e-08\n"


def test_overlap_within_the_parity_hop_raises(pq_map, gcf):
    # a hull within one T^{q_{n-1}} hop is q_n-small, yet images that
    # overlap all the same are refused as not q_n-small; ranks 5 and 6
    # take the hop from the left end and into the right end
    for n in (5, 6):
        part = build_partition(pq_map, gcf, 0.05, n)
        triple = regular_cover_triple(pq_map, part, break_preimages(pq_map, part))
        assert _reference_endpoint_condition(pq_map, gcf, _hull_arc(triple), n)
        res = _overlapped(part, distortion_chain(triple.quadruple, pq_map, part.q_n))
        with pytest.raises(InvariantFailure, match=f"is not q_{n}-small"):
            _check_hull_images(pq_map, part, triple, res)


def test_hull_audit_runs_no_orbit(monkeypatch, pq_map, gcf):
    # the audit reads the chain's quadruples only
    part = build_partition(pq_map, gcf, 0.05, 9)
    triple = regular_cover_triple(pq_map, part, break_preimages(pq_map, part))
    res = distortion_chain(triple.quadruple, pq_map, part.q_n)
    calls = [_count_calls(monkeypatch, fn) for fn in (advance, retreat, evaluate)]
    assert _check_hull_images(pq_map, part, triple, res) is None
    assert calls == [[], [], []]


def test_distortion_chain_walks_no_orbit_of_its_own(monkeypatch, pq_map, gcf):
    # the chain's points are its only orbit; the endpoints iterated one
    # by one are the oracle below, not part of the run
    part = build_partition(pq_map, gcf, 0.05, 9)
    triple = regular_cover_triple(pq_map, part, break_preimages(pq_map, part))
    calls = _count_calls(monkeypatch, advance)
    res = distortion_chain(triple.quadruple, pq_map, part.q_n)
    assert calls == []
    assert type(res)._fields == ("total", "factors", "quadruples")


@pytest.mark.parametrize(
    "name, n_max",
    [
        ("pq_main", None),
        ("pq_same_orbit", None),
        ("pl_generic", None),
        ("rotation_baseline", None),
        ("pl_herman", None),
        ("pl_generic", 20),
    ],
)
def test_every_report_chain_meets_its_oracles(monkeypatch, name, n_max):
    # each rank's chain, as the report runs it: its total within
    # direct_tol of the endpoints iterated one by one, and within the
    # rounding bound of the telescoped ratio of its end cross-ratios.
    # The records check nothing themselves: each cover triple has a known
    # case tag and increasing coordinates on one chart, and the report's
    # rows run up the ranks with gaps >= 0
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    if n_max is not None:
        doc = dict(doc, n_min=n_max, n_max=n_max)
    cfg = ExperimentConfig(**doc)
    cf = ContinuedFraction.from_quotients(cfg.rho_quotients)
    ranks = range(cfg.n_min, cfg.n_max + 1)
    runs, triples = [], []

    def chain(q, m, steps):
        runs.append((q, m, steps, distortion_chain(q, m, steps)))
        return runs[-1][-1]

    def triple(m, part, tables):
        triples.append(regular_cover_triple(m, part, tables))
        return triples[-1]

    monkeypatch.setattr(circlebreak.singularity, "distortion_chain", chain)
    monkeypatch.setattr(circlebreak.singularity, "regular_cover_triple", triple)
    rows = singularity_report(cfg).rows
    assert [r.n for r in rows] == list(ranks)
    assert all(r.dist_qn_gap >= 0 and (r.gf_gap is None or r.gf_gap >= 0) for r in rows)
    two_break = len(runs[0][1].breaks) == 2
    assert len(triples) == (len(ranks) if two_break else 0)
    for t in triples:
        assert t.case_tag in CASE_TAGS
        assert t.z1 < t.z2 < t.z3 < t.z4 and t.z4 - t.z1 < 1.0
    assert [steps for _, _, steps, _ in runs] == [cf.q(n) for n in ranks]
    for q, m, steps, res in runs:
        assert len(res.factors) == steps and len(res.quadruples) == steps + 1
        direct, direct_tol = direct_distortion(q, m, steps)
        assert abs(res.total - direct) <= direct_tol * abs(direct)
        telescoped = cross_ratio(res.quadruples[-1]) / cross_ratio(res.quadruples[0])
        assert abs(res.total - telescoped) <= telescoping_bound(steps) * abs(telescoped)


def test_cover_triple_needs_two_breaks(rot_map, gcf):
    part = build_partition(rot_map, gcf, 0.0, 6)
    with pytest.raises(InvalidGeometry):
        regular_cover_triple(rot_map, part, break_preimages(rot_map, part))


def _hull_image_sum(m, part, tables):
    # total length of the q_n hull iterates whose quadruples _qn_row
    # chains: the cover triple's on a two-break map, else the generator's
    if len(m.breaks) == 2:
        quad = regular_cover_triple(m, part, tables).quadruple
    else:
        quad = _generator_quadruple(part)
    res = distortion_chain(quad, m, part.q_n)
    return sum_left_to_right(q.hull for q in res.quadruples[: part.q_n])


def test_qn_gaps_rotation_vanish(rot_map, gcf):
    parts, tables = rank_parts(rot_map, gcf, 0.0, range(4, 9))
    for part in parts:
        r = _qn_row(rot_map, part, tables)
        assert r.case_tag == "break_free"
        assert r.gf_gap is None
        assert r.dist_qn_gap <= 1e-12
        assert _hull_image_sum(rot_map, part, tables) <= 1.0 + 1e-9


def test_qn_gaps_generic_bounded_below(pq_map, gcf):
    parts, tables = rank_parts(pq_map, gcf, 0.05, range(6, 10))
    for part in parts:
        r = _qn_row(pq_map, part, tables)
        assert r.case_tag == "c_outside_U"
        assert r.dist_qn_gap > 0.2
        assert _hull_image_sum(pq_map, part, tables) <= 1.0 + 1e-9


def test_qn_gaps_same_orbit_certified(so_map, gcf):
    rows = qn_rows(so_map, gcf, 0.05, range(6, 10))
    for r in rows:
        assert r.case_tag == "c_in_U_left"
        assert r.gf_gap is not None
        assert r.gf_gap >= 0.15
        assert r.dist_qn_gap > 0.3


def test_lorenz_rotation_flat(rot_map, gcf):
    part = build_partition(rot_map, gcf, 0.0, 7)
    curve = mass_length_curve(part, beta_masses(part, gcf.value))
    assert abs(curve.lorenz_90_length - 0.90) <= 2.0 / part.q_n
    end_len, end_mass = curve.points[-1]
    assert end_len == pytest.approx(1.0, abs=1e-9)
    assert end_mass == pytest.approx(1.0, abs=1e-9)
    assert max(abs(l - m) for l, m in curve.points) < 0.1


def test_lorenz_concentrates_for_pq(pq_map, gcf):
    shallow, deep = (
        build_partition(pq_map, gcf, 0.05, n) for n in (6, 10)
    )
    shallow = mass_length_curve(shallow, beta_masses(shallow, GOLDEN))
    deep = mass_length_curve(deep, beta_masses(deep, GOLDEN))
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
        masses = beta_masses(part, rho)
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

    cfg = ExperimentConfig(kind=kind, a=a, same_orbit_steps=1, **shape)
    calls = []
    tune = sing.tune_translation

    def counting(*args, **kwargs):
        calls.append(args)
        return tune(*args, **kwargs)

    monkeypatch.setattr(sing, "tune_translation", counting)
    m, tr = sing.solve_same_orbit(cfg, gcf)
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
    cfg = ExperimentConfig(kind=kind, a=0.2, same_orbit_steps=2, **shape)
    m, _ = solve_same_orbit(cfg, gcf)
    assert abs(m.translation - reference) <= 1e-9
    assert _same_orbit_residual(m, steps=2) <= 10 * 1e-9


def test_pl_same_orbit_distortion_gap_vanishes(pl_so_map, gcf):
    # Herman: both breaks on one orbit of a PL map give an AC measure, and
    # with c exactly f(a) the q_n-distortion gap is rounding only.  At
    # rank 19 the chain's rounding puts c 4e-9 alpha left of z2, which
    # moves the predicted second-break factor by 1.6e-9 from the offset-0
    # slice
    ranks = list(range(5, 13)) + [19]
    rows = qn_rows(pl_so_map, gcf, 0.05, ranks)
    assert [r.n for r in rows] == ranks
    for r in rows:
        assert r.case_tag == "c_in_U_left"
        assert r.dist_qn_gap <= 1e-12, f"rank {r.n}: gap {r.dist_qn_gap!r}"


def test_solve_same_orbit_validation(monkeypatch, gcf):
    # ExperimentConfig refuses an unknown kind and a same_orbit_steps below
    # 1; a config that places no second break is refused here
    with pytest.raises(ValueError, match="places no second break"):
        solve_same_orbit(ExperimentConfig(kind="rotation", same_orbit_steps=1), gcf)
    with pytest.raises(ValueError, match="places no second break"):
        solve_same_orbit(ExperimentConfig(kind="pq"), gcf)
    # the m_steps placement orbit is checked against the budget before
    # any tuning runs; the tuning's walk would stop at q_4 = 5
    cfg = ExperimentConfig(kind="pq", a=0.2, sigma_a=2.0, sigma_c=0.8, same_orbit_steps=4)
    monkeypatch.setattr(circlebreak.numerics, "ORBIT_CAP", 3)
    with pytest.raises(PrecisionBudgetExceeded, match="length 4 exceeds cap 3"):
        solve_same_orbit(cfg, gcf)


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="quadratic")
    # a list kind is refused as unknown before a dict lookup can raise
    # TypeError on it
    with pytest.raises(ConfigError):
        ExperimentConfig(kind=["pq"])
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="pq", n_min=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="pq", rho_quotients=tuple([1] * 5), n_max=12)
    with pytest.raises(ConfigError):
        ExperimentConfig(kind="pq", same_orbit_steps=0)
    # the tuning width is the golden bracket n_max + 2, 4.3e-6 at 12; the
    # rotation reads the same bracket, so every kind needs its quotients
    golden = ContinuedFraction.from_quotients([1] * 30)
    assert tuning_width(golden, 12) == 1 / (377 * 610)
    assert golden.bracket_within(tuning_width(golden, 12)) == 14
    for kind in ("pq", "pl", "rotation"):
        ExperimentConfig(kind=kind, rho_quotients=tuple([1] * 14), n_max=12)
        with pytest.raises(ConfigError, match="n_max \\+ 2"):
            ExperimentConfig(kind=kind, rho_quotients=tuple([1] * 13), n_max=12)
    # n_max 27 needs 2.3e-12; 28 needs 8.9e-13, which binary64 cannot
    # certify, so it is refused here, before any orbit runs
    ExperimentConfig(kind="pq", n_max=27)
    assert tuning_width(golden, 28) == pytest.approx(8.9e-13, rel=1e-2)
    with pytest.raises(ConfigError, match="certifiable"):
        ExperimentConfig(kind="pq", n_max=28)
    # the width follows from n_max, and a report reads no measure orbit,
    # so tune_tol and the measure-orbit keys of the measure command mean
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
    # one certificate: tuning to bracket n_max + 2 encloses rho; the
    # rotation is not tuned and reads the same bracket of its target
    cfg = ExperimentConfig(kind=kind, n_min=5, n_max=8)
    farey = _count_calls(monkeypatch, circlebreak.rotation.rho_farey)
    tunes = _count_calls(monkeypatch, circlebreak.rotation.tune_translation)
    orbits = _count_calls(monkeypatch, circlebreak.measure.conjugacy_values)
    rep = singularity_report(cfg)
    cf = ContinuedFraction.from_quotients(cfg.rho_quotients)
    width = 1.0 / (cf.q(9) * cf.q(10))
    assert tuning_width(cf, 8) == width
    assert [call["tol"] for call in tunes] == ([] if kind == "rotation" else [width])
    assert farey == [] and orbits == []
    diag = rep.to_json_dict()["diagnostics"]
    assert diag["rho_bracket"] == cf.bracket_within(width) == 10
    assert diag["rho_bracket_width"] == width
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
            regular_cover_triple(m, deep.coarsen(n), tables)
        assert walks == []


def _reference_preimages(m, part):
    """(l, the first break's walk to abar, p, the second break's first q_n
    preimages, d_n's backward point) by the per-rank walks the cover ran
    before it read the break tables: each break pulled back from itself,
    the first one l steps to abar, and abar pulled back q_{n-1} steps for
    d_n."""
    a_loc, c_loc = m.breaks[0].location, m.breaks[1].location
    l = _reference_l(m, part)
    walk = [a_loc]
    retreat(m, a_loc, 0, l, walk)
    abar = walk[-1]
    pres = [c_loc]
    retreat(m, c_loc, 0, part.q_n - 1, pres)
    p = min(
        range(len(pres)),
        key=lambda k: min(arc_length(pres[k], abar), arc_length(abar, pres[k])),
    )
    return l, walk, p, pres, retreat(m, abar, 0, part.q_nm1)[0]


@pytest.mark.parametrize(
    "name, n_max",
    [("pq_main", 15), ("pq_same_orbit", 16), ("pl_generic", 16), ("pl_herman", 16)],
)
def test_break_tables_match_the_per_rank_walks(name, n_max):
    # the report's tables, built once at the deepest rank, give every
    # rank the bits of its own walks, and the cover reads nothing else of
    # them: tables holding only the walks' points, nan elsewhere, give the
    # same triple.  The first table's walk is entries 0..l, the ones the
    # cover tests against the window
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    cfg = ExperimentConfig(**dict(doc, n_max=n_max))
    cf = ContinuedFraction.from_quotients(cfg.rho_quotients)
    m, _, _ = build_experiment_map(cfg, cf)
    deep = build_partition(m, cf, cfg.x0, n_max)
    tables = break_preimages(m, deep)
    assert [len(t) for t in tables] == [deep.q_n + deep.q_nm1] * 2
    for n in range(5, n_max + 1):
        part = deep.coarsen(n)
        l, walk, p, pres, bwd = _reference_preimages(m, part)
        abar = walk[-1]
        t = regular_cover_triple(m, part, tables)
        assert (t.l_index, t.p_index) == (l, p)
        t_abar = t.z3 if t.case_tag == "c_in_U_right" else t.z2
        got = (t_abar, tables[1][p], tables[0][l + part.q_nm1])
        assert [x.hex() for x in got] == [x.hex() for x in (abar, pres[p], bwd)], n
        only = [[math.nan] * len(table) for table in tables]
        only[0][: l + 1], only[0][l + part.q_nm1], only[1][: part.q_n] = walk, bwd, pres
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
    # 1e-16 to 2.5e-14; predicting with F at offset 0, the paper's G,
    # missed the measured factor beyond the audit's budget at these ranks
    (row,) = qn_rows(m, gcf, 0.05, [rank])
    assert row.n == rank


@pytest.mark.parametrize("name", ["pq_map", "so_map"])
def test_qn_row_chains_each_rank_once(monkeypatch, request, gcf, name):
    # the hull audit (q_n-smallness, parity cross-check, break hits) reads
    # the distortion chain's own quadruples and runs no orbit of its own
    m = request.getfixturevalue(name)
    chains = _count_calls(monkeypatch, circlebreak.crossratio.chain_points)
    rows = qn_rows(m, gcf, 0.05, range(5, 9))
    assert [call["steps"] for call in chains] == [r.q_n for r in rows]


def test_report_rotation_baseline():
    cfg = ExperimentConfig(kind="rotation", label="baseline", n_min=4, n_max=7)
    rep = singularity_report(cfg)
    assert rep.verdict == "AC_BASELINE"
    assert not rep.gap_floor_ok
    assert rep.min_upper_gap < 1e-8
    assert rep.v == 0.0
    assert [r.n for r in rep.rows] == [4, 5, 6, 7]
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
JUMP_GRID_STOPS = {(4.0, 0.1): ROUNDING_FLOOR, (4.0, 0.3): ROUNDING_FLOOR}


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
    "sigma_a, sigma_c, n_max", [(2.0, 0.8, 12), (2.0, 0.1, 8)], ids=["2-0.8", "2-0.1"]
)
def test_first_break_audit_catches_a_wrong_closed_form(monkeypatch, sigma_a, sigma_c, n_max):
    # the first break read with a jump ratio 5% high, its map unchanged: the
    # audit's closed form then misses the chain's factor, from the grid's
    # widest cover hull to its smallest (5.8e-12 at (2, 0.1), rank 5)
    import circlebreak.singularity as sing

    build = sing.build_experiment_map

    def wrong_first_break(config, target):
        m, tr, notes = build(config, target)
        a = m.breaks[0]
        wrong = BreakPoint(a.location, 1.05 * a.d_minus, a.d_plus)
        return m._replace(breaks=(wrong, m.breaks[1])), tr, notes

    monkeypatch.setattr(sing, "build_experiment_map", wrong_first_break)
    cfg = ExperimentConfig(
        kind="pq", a=0.2, c=0.6, x0=0.05, sigma_a=sigma_a, sigma_c=sigma_c, n_min=5, n_max=n_max
    )
    with pytest.raises(InvariantFailure, match=FIRST_BREAK_AUDIT):
        singularity_report(cfg)


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


def test_map_stats_is_the_one_cache():
    # every constant read off the segment table comes from map_stats, the
    # package's one cache
    modules = [
        importlib.import_module(f"circlebreak.{info.name}")
        for info in pkgutil.iter_modules(circlebreak.__path__)
    ]
    cached = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name, obj in vars(mod).items()
        if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__
    ]
    assert cached == ["circlebreak.maps.map_stats"]
    # it is keyed by value: a twin built on its own compares and hashes
    # equal, so it reads the entry of the first map
    m = make_pq_two_break(0.137, 0.771, 1.7, 0.6, 0.3)
    twin = make_pq_two_break(0.137, 0.771, 1.7, 0.6).with_translation(0.3)
    assert twin is not m and twin == m and hash(twin) == hash(m)
    first = map_stats(m)
    hits = map_stats.cache_info().hits
    assert map_stats(twin) is first
    assert map_stats.cache_info().hits == hits + 1


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


# SHA-256 of each bundled experiment's report, its to_json_dict() dumped
# with sorted keys, at ranks 8-20: the bundled configs stop at rank 12
DEEP_REPORT_DIGESTS = {
    "pl_generic": "5f88c29aaff9317f92679062ac56900de623cdc4010d502afc86c637b2f383ca",
    "pl_herman": "a34d1b84dbe980c43801e57f6b70501fbef8df4ac1f4b9dffcc94df6084bdf6d",
    "pq_main": "3abbbd510baf1fce64783f0a7c5889ed7057f49a2cd6a0abbac838e5c72b6dd4",
    "pq_same_orbit": "0f33d1295374a4d78c87b535273b188aba813f0c9bc424d3ae68c9da745a9ac3",
    "rotation_baseline": "c99d0c54687b59296f602dffbaf60f72b60ec6627318471ff8a379eb0b4e18e3",
}


@pytest.mark.parametrize("name", sorted(DEEP_REPORT_DIGESTS))
def test_bundled_reports_at_ranks_8_to_20_keep_their_digests(name):
    with open(os.path.join(ROOT, "configs", name + ".json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(n_min=8, n_max=20)
    rep = circlebreak.singularity.singularity_report(circlebreak.singularity.ExperimentConfig(**doc))
    text = json.dumps(rep.to_json_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == DEEP_REPORT_DIGESTS[name]
