import pytest

from conftest import GOLDEN

import circlebreak.measure
from circlebreak.errors import OrderViolation, PrecisionBudgetExceeded
from circlebreak.measure import (
    conjugacy_values,
    convergent_masses,
    mass_identity_residual,
    partition_masses,
)
from circlebreak.maps import iterate, make_rotation
from circlebreak.numerics import arc_length, to_circle
from circlebreak.partition import build_partition
from circlebreak.rotation import (
    ContinuedFraction,
    RotationEstimate,
    convergent_error,
    rho_farey,
)
from circlebreak.singularity import MASS_REL_TOL, mass_length_curve


def exact_rho(value):
    return RotationEstimate(value=value, lower=value, upper=value)


def tuned_rho(value, tol=1e-10):
    return RotationEstimate(value=value, lower=value - tol, upper=value + tol)


@pytest.fixture(scope="module")
def rot_om(rot_map, gcf):
    # The map's rotation number is its translation, exactly.
    part = build_partition(rot_map, gcf, 0.0, 7)
    return conjugacy_values(rot_map, exact_rho(gcf.value), part, 400)


@pytest.fixture(scope="module")
def pq_om(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 8)
    return conjugacy_values(pq_map, tuned_rho(GOLDEN), part, 380)


def pq_masses(pq_map, gcf, n, points=380):
    """(rank_tag, mass) per cell of xi_n(0.05), from its orbit extended to
    ``points``."""
    part = build_partition(pq_map, gcf, 0.05, n)
    om = conjugacy_values(pq_map, tuned_rho(GOLDEN), part, points)
    return list(zip(part.elements.rank_tag, partition_masses(om)))


def arc_mass(om, i, j):
    """Measure of the counterclockwise arc from x_i to x_j."""
    return to_circle(om.phi[j] - om.phi[i])


def test_rotation_arc_mass_is_arc_length(rot_om):
    idx = sorted(range(rot_om.n_points), key=rot_om.orbit.__getitem__)
    for k in range(0, len(idx) - 1, 7):
        i, j = idx[k], idx[k + 1]
        mass = arc_mass(rot_om, i, j)
        length = arc_length(rot_om.orbit[i], rot_om.orbit[j])
        assert mass == pytest.approx(length, abs=1e-12)


def test_rank_masses_are_convergent_errors(pq_map, gcf):
    rows = pq_masses(pq_map, gcf, 6)
    by_rank = {}
    for tag, mass in rows:
        by_rank.setdefault(tag, []).append(mass)
    assert sorted(by_rank) == [5, 6]
    assert len(by_rank[5]) == 13 and len(by_rank[6]) == 8
    for rank, masses in by_rank.items():
        beta = convergent_error(gcf, GOLDEN, rank)
        for mass in masses:
            assert mass == pytest.approx(beta, abs=1e-10)
        assert max(masses) - min(masses) < 1e-10
    # |8 rho - 5| for the golden mean
    assert abs(by_rank[5][0] - 0.05572809000) < 1e-9
    assert sum(mass for _, mass in rows) == pytest.approx(1.0, abs=1e-10)


def test_mass_depends_only_on_rank_deep(pq_map, gcf):
    for n in (8, 10, 12):
        rows = pq_masses(pq_map, gcf, n)
        by_rank = {}
        for tag, mass in rows:
            by_rank.setdefault(tag, []).append(mass)
        for masses in by_rank.values():
            assert max(masses) - min(masses) < 1e-10
        assert sum(mass for _, mass in rows) == pytest.approx(1.0, abs=1e-10)


def test_rotation_masses_equal_lengths(rot_om):
    lengths = rot_om.part.elements.length
    for mass, length in zip(partition_masses(rot_om), lengths):
        assert mass == pytest.approx(length, abs=1e-12)
        assert mass / length == pytest.approx(1.0, abs=1e-9)


def test_mass_identity():
    from circlebreak.rotation import ContinuedFraction

    cf = ContinuedFraction.from_quotients([1] * 30)
    for n in range(1, 13):
        assert abs(mass_identity_residual(cf, GOLDEN, n)) < 1e-9


def test_push_forward_invariance(pq_om):
    for e in pq_om.part.elements:
        mass = arc_mass(pq_om, e.left_index, e.right_index)
        image_mass = arc_mass(pq_om, e.left_index + 1, e.right_index + 1)
        assert image_mass == pytest.approx(mass, abs=1e-10)


def test_conjugacy_rejects_wide_enclosure(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 5)
    with pytest.raises(PrecisionBudgetExceeded):
        conjugacy_values(pq_map, tuned_rho(GOLDEN, tol=1e-3), part, 1000)


def test_conjugacy_rejects_wrong_rho(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 5)
    with pytest.raises(OrderViolation):
        conjugacy_values(pq_map, exact_rho(0.61), part, 100)


def test_conjugacy_rejects_duplicate_positions(rot_map, gcf):
    part = build_partition(rot_map, gcf, 0.0, 5)
    n = len(part.orbit)
    # the identity extends the orbit by its last point once more
    dup = f"duplicate orbit positions at indices {n - 1} and {n}"
    with pytest.raises(OrderViolation, match=dup):
        conjugacy_values(make_rotation(0.0), exact_rho(gcf.value), part, n + 1)
    # rho = 1/2 puts phi[2] on phi[0]
    with pytest.raises(OrderViolation, match="duplicate phi positions at indices 0 and 2"):
        conjugacy_values(rot_map, exact_rho(0.5), part, n)


def test_conjugacy_needs_two_points(rot_map, gcf):
    # the shallowest partition orbit, x0 and T x0, already has two
    part = build_partition(rot_map, gcf, 0.0, 1)
    assert len(part.orbit) == 2
    with pytest.raises(ValueError):
        conjugacy_values(rot_map, exact_rho(GOLDEN), part, 1)


def test_conjugacy_values_orbit_too_short(pq_map, gcf):
    # the measure orbit extends the partition's 21 points, never cuts them
    part = build_partition(pq_map, gcf, 0.05, 6)
    with pytest.raises(ValueError):
        conjugacy_values(pq_map, tuned_rho(GOLDEN), part, 10)


def test_conjugacy_values_extends_the_partition_orbit(monkeypatch, pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 8)
    steps = []
    advance = circlebreak.measure.advance

    def counted(m, x, w, n, *rest):
        steps.append(n)
        return advance(m, x, w, n, *rest)

    monkeypatch.setattr(circlebreak.measure, "advance", counted)
    om = conjugacy_values(pq_map, tuned_rho(GOLDEN), part, 380)
    assert steps == [380 - len(part.orbit)]
    assert om.part is part and om.n_points == 380
    assert om.orbit[: len(part.orbit)] == part.orbit
    # extending is bit-identical to iterating afresh from the base point
    assert list(om.orbit) == iterate(pq_map, part.x0, 379)


def test_phi_drift_within_budget(pq_om):
    assert pq_om.rho.width * pq_om.n_points <= 1e-7


def mass_rule_width(cf, n):
    """The rho width a singularity report asks for at deepest rank n."""
    return 2.0 * MASS_REL_TOL / (cf.q(n) * (cf.q(n) + cf.q(n + 1)))


@pytest.mark.parametrize("name", ["pq", "pl", "rot"])
def test_convergent_masses_match_orbit_masses(request, gcf, name):
    m = request.getfixturevalue(name + "_map")
    fine, _ = rho_farey(m, width=1e-11)
    w = mass_rule_width(gcf, 12)
    coarse, _ = rho_farey(m, width=w)
    assert coarse.width <= w
    deep = build_partition(m, gcf, 0.05, 12)
    for n in range(2, 13):
        part = deep.coarsen(gcf, n)
        orbit = partition_masses(conjugacy_values(m, fine, part, len(deep.orbit)))
        # same rho: the rank tag picks beta_{n-1} or beta_n exactly
        same = convergent_masses(part, gcf, fine.value)
        assert max(abs(a - b) for a, b in zip(same, orbit)) <= 1e-12
        # the report's coarser rho: q_k times the rho error, plus rounding
        masses = convergent_masses(part, gcf, coarse.value)
        for k, mass, ref in zip(part.elements.rank_tag, masses, orbit):
            assert abs(mass - ref) <= gcf.q(k) * (coarse.width + fine.width) / 2 + 1e-12
            assert abs(mass - ref) <= MASS_REL_TOL * ref
        if m.breaks:
            assert (
                mass_length_curve(part, masses).lorenz_90_length
                == mass_length_curve(part, orbit).lorenz_90_length
            )


def test_convergent_masses_are_the_rank_errors(gcf):
    # any partition of the golden cf: rank n-1 cells get beta_{n-1}
    part = build_partition(make_rotation(GOLDEN), gcf, 0.3, 6)
    masses = convergent_masses(part, gcf, GOLDEN)
    for tag, mass in zip(part.elements.rank_tag, masses):
        assert mass == convergent_error(gcf, GOLDEN, tag)
    assert sum(masses) == pytest.approx(1.0, abs=1e-12)


def test_convergent_masses_refuse_a_foreign_fraction(pq_map, gcf):
    part = build_partition(pq_map, gcf, 0.05, 6)
    with pytest.raises(ValueError):
        convergent_masses(part, ContinuedFraction.from_quotients([2] * 10), GOLDEN)
    with pytest.raises(ValueError):
        convergent_masses(part, ContinuedFraction.from_quotients([1] * 5), GOLDEN)
