import math

import pytest

from conftest import GOLDEN, cell_interval

from circlebreak.errors import (
    IndexMismatch,
    OrderViolation,
    PrecisionBudgetExceeded,
)
from circlebreak.measure import (
    MeasureBounds,
    conjugacy_values,
    mass_identity_residual,
    measure_interval,
    partition_masses,
)
from circlebreak.numerics import arc_length
from circlebreak.partition import CircleInterval, build_partition
from circlebreak.rotation import RotationEstimate, convergent_error


def exact_rho(value):
    return RotationEstimate(value=value, lower=value, upper=value, method="fixed")


def tuned_rho(value, tol=1e-10):
    return RotationEstimate(
        value=value, lower=value - tol, upper=value + tol, method="tuned"
    )


@pytest.fixture(scope="module")
def rot_om(rot_map, gcf):
    # The map's rotation number is its translation, exactly.
    return conjugacy_values(rot_map, exact_rho(gcf.value), 0.0, 400)


@pytest.fixture(scope="module")
def pq_om(pq_map):
    return conjugacy_values(pq_map, tuned_rho(GOLDEN), 0.05, 380)


def test_rotation_arc_mass_is_arc_length(rot_om):
    idx = rot_om.sorted_idx
    for k in range(0, len(idx) - 1, 7):
        i, j = idx[k], idx[k + 1]
        mass = rot_om.arc_mass(i, j)
        length = arc_length(rot_om.orbit[i], rot_om.orbit[j])
        assert mass == pytest.approx(length, abs=1e-12)


def test_rank_masses_are_convergent_errors(pq_om, pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 6)
    rows = partition_masses(pq_om, part)
    by_rank = {}
    for r in rows:
        by_rank.setdefault(r.rank_tag, []).append(r.mass)
    assert sorted(by_rank) == [5, 6]
    assert len(by_rank[5]) == 13 and len(by_rank[6]) == 8
    for rank, masses in by_rank.items():
        beta = convergent_error(gcf, GOLDEN, rank)
        for mass in masses:
            assert mass == pytest.approx(beta, abs=1e-10)
        assert max(masses) - min(masses) < 1e-10
    # |8 rho - 5| for the golden mean
    assert abs(by_rank[5][0] - 0.05572809000) < 1e-9
    assert sum(r.mass for r in rows) == pytest.approx(1.0, abs=1e-10)


def test_mass_depends_only_on_rank_deep(pq_om, pq_map, gcf):
    for n in (8, 10, 12):
        rows = partition_masses(pq_om, build_partition(pq_map, gcf, 0.05, n))
        by_rank = {}
        for r in rows:
            by_rank.setdefault(r.rank_tag, []).append(r.mass)
        for masses in by_rank.values():
            assert max(masses) - min(masses) < 1e-10
        assert sum(r.mass for r in rows) == pytest.approx(1.0, abs=1e-10)


def test_rotation_masses_equal_lengths(rot_om, rot_map, gcf):
    rows = partition_masses(rot_om, build_partition(rot_map, gcf, 0.0, 7))
    for r in rows:
        assert r.mass == pytest.approx(r.length, abs=1e-12)
        assert r.density == pytest.approx(1.0, abs=1e-9)


def test_mass_identity():
    from circlebreak.rotation import ContinuedFraction

    cf = ContinuedFraction.from_quotients([1] * 30)
    for n in range(1, 13):
        assert abs(mass_identity_residual(cf, GOLDEN, n)) < 1e-9


def test_push_forward_invariance(pq_om, pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 8)
    for e in part.elements:
        mass = pq_om.arc_mass(e.left_index, e.right_index)
        image_mass = pq_om.arc_mass(e.left_index + 1, e.right_index + 1)
        assert image_mass == pytest.approx(mass, abs=1e-10)


def test_measure_interval_full_circle(rot_om):
    b = measure_interval(rot_om, CircleInterval(0.3, 1.0))
    assert (b.lower, b.upper) == (1.0, 1.0)


def test_measure_interval_rotation_lebesgue(rot_map, gcf):
    om = conjugacy_values(rot_map, exact_rho(gcf.value), 0.0, 10**4)
    b = measure_interval(om, CircleInterval(0.0, 0.3))
    assert b.lower <= 0.3 <= b.upper
    assert b.width <= 2e-3


def test_measure_interval_generic_straddle(pq_om):
    b = measure_interval(pq_om, CircleInterval(0.12, 0.3))
    assert b.width <= 2 * pq_om.max_gap()
    assert 0 < b.lower < b.upper < 1


def test_measure_interval_orbit_endpoints_collapse(pq_om):
    # Both endpoints on orbit points: nonatomicity leaves no slack, so
    # the bracket closes to a single exact value.
    pos = pq_om.sorted_pos
    k = 11
    iv = CircleInterval(pos[k], arc_length(pos[k], pos[k + 5]))
    b = measure_interval(pq_om, iv)
    assert b.width == 0.0
    assert b.lower == pq_om.arc_mass(
        pq_om.sorted_idx[k], pq_om.sorted_idx[k + 5]
    )


def test_measure_interval_element_matches_closed_form(pq_om, pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 6)
    for row in range(5):
        b = measure_interval(pq_om, cell_interval(part, row))
        beta = convergent_error(gcf, GOLDEN, int(part.elements.rank_tag[row]))
        assert b.lower - 1e-12 <= beta <= b.upper + 1e-12
        assert b.width <= 2 * pq_om.max_gap()


def test_measure_interval_empty(pq_om):
    pos = pq_om.sorted_pos
    gap_mid = (pos[3] + pos[4]) / 2
    width = (pos[4] - pos[3]) / 10
    b = measure_interval(pq_om, CircleInterval(gap_mid, width))
    assert b.lower == 0.0
    assert b.upper == pq_om.arc_mass(pq_om.sorted_idx[3], pq_om.sorted_idx[4])


def test_bounds_validation():
    with pytest.raises(ValueError):
        MeasureBounds(0.5, 0.3)
    with pytest.raises(ValueError):
        MeasureBounds(-0.1, 0.3)


def test_conjugacy_rejects_wide_enclosure(pq_map):
    with pytest.raises(PrecisionBudgetExceeded):
        conjugacy_values(pq_map, tuned_rho(GOLDEN, tol=1e-3), 0.05, 1000)


def test_conjugacy_rejects_wrong_rho(pq_map):
    with pytest.raises(OrderViolation):
        conjugacy_values(pq_map, exact_rho(0.61), 0.05, 100)


def test_conjugacy_needs_two_points(rot_map):
    with pytest.raises(ValueError):
        conjugacy_values(rot_map, exact_rho(GOLDEN), 0.0, 1)


def test_partition_masses_base_point_mismatch(pq_om, pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.07, 5)
    with pytest.raises(IndexMismatch):
        partition_masses(pq_om, part)


def test_partition_masses_orbit_too_short(pq_map, gcf):
    om = conjugacy_values(pq_map, tuned_rho(GOLDEN), 0.05, 10)
    part = build_partition(pq_map, gcf, 0.05, 6)
    with pytest.raises(IndexMismatch):
        partition_masses(om, part)


def test_max_gap_shrinks_with_orbit(rot_map, gcf):
    coarse = conjugacy_values(rot_map, exact_rho(gcf.value), 0.0, 50)
    fine = conjugacy_values(rot_map, exact_rho(gcf.value), 0.0, 400)
    assert fine.max_gap() < coarse.max_gap() < 0.05


def test_phi_drift_within_budget(pq_om):
    assert pq_om.rho.width * pq_om.n_points <= 1e-7
