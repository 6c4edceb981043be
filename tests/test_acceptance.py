"""Acceptance gate: one test per primary claim, at the stated tolerances.

Each test prints a single PASS line on success (visible with -s); a
failure reads as the criterion number plus the violated bound.  Timed
criteria assert their wall-clock budget too.
"""

import json
import math
import os
import random
import statistics
import time
from pathlib import Path

import pytest

from conftest import GOLDEN, cell_interval, qn_rows

from circlebreak.crossratio import Quadruple, cross_ratio, distortion_chain, f_func, g_func
from circlebreak.maps import make_pq_two_break, make_rotation, map_stats
from circlebreak.measure import (
    conjugacy_values,
    mass_identity_residual,
    partition_masses,
)
from circlebreak.errors import BreakCollision
from circlebreak.numerics import MACHINE_EPS, arc_length
from circlebreak.partition import (
    build_partition,
    check_refinement,
    denjoy_product,
    max_element_decay,
)
from circlebreak.rotation import (
    ContinuedFraction,
    RotationEstimate,
    rho_farey,
    tune_translation,
)
from circlebreak.singularity import (
    ExperimentConfig,
    singularity_report,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FIB_Q = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def _ok(tag):
    print(f"[{tag}] PASS")


def test_primary_01_cf_rotation(gcf):
    t0 = time.perf_counter()
    assert list(gcf.quotients[:10]) == [1] * 10
    assert [gcf.q(n) for n in range(10)] == FIB_Q
    est, cfr = rho_farey(make_rotation(1.0 / 3.0), depth=40)
    assert est.rational == (1, 3)
    assert est.value == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert tuple(cfr.quotients) == (3,)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _ok("PRIMARY-01 continued fractions and rational certification")


def test_primary_02_partition_soundness(gcf):
    t0 = time.perf_counter()
    base = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    res = tune_translation(base, gcf, tol=1e-10)
    m = base.with_translation(res.translation)
    for n in range(1, 13):
        part = build_partition(m, gcf, 0.05, n)
        assert len(part.elements) == part.q_n + part.q_nm1
        assert part.q_n == gcf.q(n) and part.q_nm1 == gcf.q(n - 1)
        cells = sorted(zip(part.elements.left, part.elements.length))
        for (left, length), (nxt, _) in zip(cells, cells[1:] + cells[:1]):
            gap = arc_length(left, nxt)
            assert gap == pytest.approx(length, abs=1e-12)
        total = sum(part.elements.length)
        assert abs(total - 1.0) <= part.q_n * 10 * MACHINE_EPS
    for n in (7, 11):
        rep = check_refinement(
            build_partition(m, gcf, 0.05, n),
            build_partition(m, gcf, 0.05, n + 1),
            gcf,
        )
        assert rep.k_next == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"criterion 2 took {elapsed:.2f}s"
    _ok("PRIMARY-02 partition counts, tiling, refinement")


def test_primary_03_denjoy_inequality(pq_map, rot_map, gcf):
    stats = map_stats(pq_map)
    lo, hi = math.exp(-stats.v) - 1e-12, math.exp(stats.v) + 1e-12
    rng = random.Random(101)
    done = attempts = 0
    while done < 100:
        attempts += 1
        assert attempts < 1000, "base points keep colliding with break orbits"
        x0 = rng.random()
        try:
            for n in range(1, 11):
                assert lo <= denjoy_product(pq_map, gcf, x0, n) <= hi
        except BreakCollision:
            continue
        done += 1
    for _ in range(100):
        prod = denjoy_product(rot_map, gcf, rng.random(), 10)
        assert prod == pytest.approx(1.0, abs=1e-12)
    _ok("PRIMARY-03 Denjoy products inside [e^-v, e^v]")


def test_primary_04_decay_rate(pq_map, gcf):
    fit = max_element_decay(pq_map, gcf, build_partition(pq_map, gcf, 0.05, 12))
    pts = [(n, math.log(length)) for n, length in fit.rows if 4 <= n <= 12]
    assert [n for n, _ in pts] == list(range(4, 13))
    slope, _ = statistics.linear_regression(
        [n for n, _ in pts], [v for _, v in pts]
    )
    assert slope <= fit.log_lambda + 0.05, (
        f"slope {slope:.4f} vs log lambda {fit.log_lambda:.4f}"
    )
    _ok("PRIMARY-04 max element length decays at least like lambda^n")


def _dist(q, fn):
    """Cr(fn z1..fn z4) / Cr(z1..z4) for a plain callable lift fn."""
    return cross_ratio(Quadruple(*(fn(z) for z in q))) / cross_ratio(q)


def test_primary_05_cross_ratio_exactness():
    frame = lambda x: 2.0 * x if x <= 0 else x  # jump ratio 2 at the origin
    d = _dist(Quadruple(-1.0, 0.0, 1.0, 2.0), frame)
    assert d == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert d == pytest.approx(g_func(1.0, 2.0), abs=1e-12)
    rng = random.Random(5)
    for _ in range(100):
        x = math.exp(rng.uniform(-6, 6))
        sigma = math.exp(rng.uniform(-2, 2))
        assert abs(f_func(x, 1.0, sigma) - 1.0) < 1e-14
    for _ in range(100):
        a, b = math.exp(rng.uniform(-2, 2)), rng.uniform(-2, 2)
        q = Quadruple.from_gaps(
            rng.uniform(-1, 1), *(rng.uniform(0.1, 1.0) for _ in range(3))
        )
        assert abs(_dist(q, lambda x: a * x + b) - 1.0) < 1e-13
    _ok("PRIMARY-05 closed-form break distortion and affine invariance")


def test_primary_06_telescoping_identity(pq_map, gcf):
    for n in range(2, 13):
        part = build_partition(pq_map, gcf, 0.05, n)
        gen = cell_interval(part, 0)
        third = gen.length / 3
        q = Quadruple.from_gaps(gen.left, third, third, third)
        res = distortion_chain(q, pq_map, part.q_n)
        assert res.total == pytest.approx(res.direct, rel=1e-10)
    _ok("PRIMARY-06 chained distortion equals direct endpoints")


def test_primary_07_mass_identity(pq_map, gcf):
    rho = RotationEstimate(value=GOLDEN, lower=GOLDEN - 1e-10, upper=GOLDEN + 1e-10)
    for n in range(1, 13):
        assert abs(mass_identity_residual(gcf, GOLDEN, n)) < 1e-9
    for n in (6, 9, 12):
        part = build_partition(pq_map, gcf, 0.05, n)
        masses = partition_masses(conjugacy_values(pq_map, rho, part, 380))
        by_rank = {}
        for tag, mass in zip(part.elements.rank_tag, masses):
            by_rank.setdefault(tag, []).append(mass)
        for masses in by_rank.values():
            assert max(masses) - min(masses) < 1e-10
    _ok("PRIMARY-07 mass identity and per-rank constancy")


def test_primary_08_gf_gap_floor(so_map, gcf):
    t0 = time.perf_counter()
    rng = random.Random(7)
    checked = 0
    for _ in range(20):
        x0 = rng.random()
        rows = qn_rows(so_map, gcf, x0, range(6, 13))
        for r in rows:
            assert r.case_tag == "c_in_U_left"
            assert r.gf_gap is not None
            assert r.gf_gap >= 0.15, f"n={r.n} x0={x0}: gf gap {r.gf_gap} < 0.15"
            checked += 1
    assert checked == 20 * 7
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.2f}s"
    _ok("PRIMARY-08 |G*F - 1| >= 0.15 on every certified cover triple")


def test_primary_09_qn_distortion_gap(so_map, rot_map, gcf):
    rows = qn_rows(so_map, gcf, 0.05, range(5, 13))
    gaps = {r.n: r.dist_qn_gap for r in rows}
    deep_min = min(gaps[n] for n in range(9, 13))
    med = statistics.median(gaps.values())
    assert deep_min > 0
    assert deep_min >= 0.5 * med, f"min {deep_min} < half median {med}"
    rot_rows = qn_rows(rot_map, gcf, 0.0, range(5, 13))
    rot_stat = min(r.dist_qn_gap for r in rot_rows if r.n >= 9)
    assert rot_stat < 1e-10
    _ok("PRIMARY-09 q_n-distortion gap bounded below, rotation null")


def test_primary_10_lorenz_signature():
    t0 = time.perf_counter()

    def lorenz_declines(values):
        violations = 0
        for prev, nxt in zip(values, values[1:]):
            if nxt >= prev:
                violations += 1
                if (nxt - prev) / prev > 0.05:
                    return False
        return violations <= 1

    pq = singularity_report(
        ExperimentConfig(kind="pq", label="pq-main", n_min=6, n_max=12)
    )
    assert lorenz_declines([r.lorenz_90_length for r in pq.rows])
    assert pq.verdict == "SINGULAR_EVIDENCE"

    pl = singularity_report(
        ExperimentConfig(
            kind="pl", label="pl-generic", slope_ratio=3.0, n_min=6, n_max=12
        )
    )
    assert lorenz_declines([r.lorenz_90_length for r in pl.rows])

    rot = singularity_report(
        ExperimentConfig(kind="rotation", label="baseline", n_min=6, n_max=12)
    )
    for r in rot.rows:
        assert abs(r.lorenz_90_length - 0.90) <= 2.0 / r.q_n
    assert rot.verdict == "AC_BASELINE"

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 10 took {elapsed:.2f}s"
    _ok("PRIMARY-10 mass concentration in both regimes, rotation flat")


def test_primary_11_cli_determinism(tmp_path):
    from circlebreak.cli import main

    cfg = CONFIG_DIR / "pq_main_short.json"
    outs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        out.mkdir()
        assert main(["singularity", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[1]))
    assert "report.json" in names and "rows.csv" in names
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    doc = json.loads((outs[0] / "report.json").read_text())
    assert doc["verdict"] == "SINGULAR_EVIDENCE"
    _ok("PRIMARY-11 byte-identical singularity reports")
