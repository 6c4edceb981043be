"""Shared fixtures: tuned maps are expensive, so build each once."""

import importlib.util
import math
import os
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings

from circlebreak.errors import InvariantFailure
from circlebreak.maps import advance, make_pl_two_break, make_pq_two_break, make_rotation
from circlebreak.numerics import MACHINE_EPS, arc_length, to_circle
from circlebreak.partition import build_partition
from circlebreak.rotation import ContinuedFraction, tune_translation
from circlebreak.singularity import _qn_row, break_preimages, solve_same_orbit

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The message of the first-break closed-form audit, which stops the runs
# that the strict xfails of ROADMAP items 8 and 14 pin.
FIRST_BREAK_AUDIT = "at the first break differs from its closed form"


def load_script(name):
    """scripts/<name>.py as a module; no command imports it."""
    path = os.path.join(ROOT, "scripts", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script

settings.register_profile(
    "suite",
    derandomize=True,
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


class Arc(NamedTuple):
    """Arc going counterclockwise from ``left`` over ``length``."""

    left: float
    length: float

    @property
    def right(self):
        return to_circle(self.left + self.length)


def cell_interval(part, row):
    """The arc of cell ``row`` of a partition."""
    cell = part.elements[row]
    return Arc(cell.left, cell.length)


def _reference_one_sided_derivatives(m, x):
    """(Df_-(x), Df_+(x)) at the circle point underlying x, read off the
    segment table one point at a time: the reference for each Df factor of
    ``partition.df_product``."""
    p0 = m.seg_pos[0]
    u = x - math.floor(x - p0)
    if u < p0:
        u += 1
    elif u >= p0 + 1:
        u -= 1
    p1 = m.seg_pos[1]
    if u == p0:
        return (m.seg_d1[1], m.seg_d0[0])
    if u == p1:
        return (m.seg_d1[0], m.seg_d0[1])
    s = 0 if u < p1 else 1
    d = m.seg_d0[s] + m.seg_curv[s] * (u - m.seg_pos[s])
    return (d, d)


def _reference_endpoint_condition(m, cf, interval, n):
    """Sufficient endpoint test for q_n-smallness, on orbits of its own.

    By convergent parity the arc is q_n-small whenever it fits inside a
    single hop of T^{q_{n-1}}: for even n-1 the hop from the left end
    runs rightward, for odd n-1 the hop into the right end leftward.
    """
    q_nm1 = cf.q(n - 1)
    if (n - 1) % 2 == 0:
        hop = advance(m, to_circle(interval.left), 0, q_nm1)[0]
        return interval.length <= arc_length(interval.left, hop)
    hop = advance(m, interval.right, 0, q_nm1)[0]
    return interval.length <= arc_length(hop, interval.right)


def _reference_is_qn_small(m, cf, interval, n):
    """True iff T^i(interval), 0 <= i < q_n, have disjoint interiors, with
    both ends iterated separately; the oracle for the chain-based check
    ``singularity._check_hull_images``.

    Raises InvariantFailure when the parity endpoint criterion holds but
    the iterates overlap.
    """
    q_n = cf.q(n)
    if q_n == 1:
        return True
    if interval.length >= 1:
        return False
    lefts = [to_circle(interval.left)]
    advance(m, lefts[0], 0, q_n - 1, lefts)
    rights = [interval.right]
    advance(m, rights[0], 0, q_n - 1, rights)
    lengths = [arc_length(lefts[i], rights[i]) for i in range(q_n)]
    tol = 10 * MACHINE_EPS * q_n
    order = sorted(range(q_n), key=lefts.__getitem__)
    disjoint = all(
        lengths[a] <= arc_length(lefts[a], lefts[b]) + tol
        for a, b in zip(order, order[1:] + order[:1])
    )
    if _reference_endpoint_condition(m, cf, interval, n) and not disjoint:
        raise InvariantFailure(
            f"interval satisfies the parity endpoint criterion at rank {n} "
            "but its iterates overlap"
        )
    return disjoint


def qn_rows(m, cf, x0, ranks):
    """singularity_report's per-rank distortion rows: one partition at the
    deepest of ``ranks`` (ascending), cut to each rank."""
    ranks = list(ranks)
    deep = build_partition(m, cf, x0, ranks[-1])
    tables = break_preimages(m, deep)
    return [_qn_row(m, deep.coarsen(cf, n), tables) for n in ranks]


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
