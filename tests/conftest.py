"""Shared fixtures: tuned maps are expensive, so build each once."""

import math

import pytest
from hypothesis import HealthCheck, settings

from circlebreak.maps import make_pl_two_break, make_pq_two_break, make_rotation
from circlebreak.partition import CircleInterval, build_partition
from circlebreak.rotation import ContinuedFraction, tune_translation
from circlebreak.singularity import _qn_row, solve_same_orbit

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def cell_interval(part, row):
    """The arc of cell ``row`` of a partition, as a CircleInterval."""
    cell = part.elements[row]
    return CircleInterval(float(cell.left), float(cell.length))


def qn_rows(m, cf, x0, ranks):
    """singularity_report's per-rank distortion rows: one partition at the
    deepest of ``ranks`` (ascending), cut to each rank."""
    ranks = list(ranks)
    deep = build_partition(m, cf, x0, ranks[-1])
    return [_qn_row(m, cf, deep.coarsen(cf, n)) for n in ranks]


@pytest.fixture(scope="session")
def gcf():
    return ContinuedFraction.from_quotients([1] * 30)


@pytest.fixture(scope="session")
def rot_map(gcf):
    return make_rotation(gcf.value)


@pytest.fixture(scope="session")
def pq_map(gcf):
    """pq two-break map, sigma product 1.6, tuned to the golden mean."""
    base = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    res = tune_translation(base, gcf, tol=1e-10)
    return base.with_translation(res.translation)


@pytest.fixture(scope="session")
def pl_map(gcf):
    """Piecewise linear two-break map with break orbits in general position."""
    base = make_pl_two_break(0.2, 0.6, 3.0)
    res = tune_translation(base, gcf, tol=1e-10)
    return base.with_translation(res.translation)


@pytest.fixture(scope="session")
def so_map(gcf):
    """pq map with the second break on the first break's forward orbit."""
    m, _ = solve_same_orbit("pq", 0.2, gcf, sigma_a=2.0, sigma_c=0.8)
    return m


@pytest.fixture(scope="session")
def pl_so_map(gcf):
    """Piecewise linear map with both breaks on one orbit (Herman's case)."""
    m, _ = solve_same_orbit("pl", 0.2, gcf, slope_ratio=2.0)
    return m
