"""Shared fixtures: tuned maps are expensive, so build each once."""

import importlib.util
import math
import os
from typing import NamedTuple

import pytest
from hypothesis import HealthCheck, settings

import circlebreak.singularity
from circlebreak.crossratio import Quadruple, cross_ratio, distortion_chain
from circlebreak.errors import InvariantFailure
from circlebreak.maps import advance, make_pl_two_break, make_pq_two_break, make_rotation
from circlebreak.numerics import MACHINE_EPS, arc_length, in_arc, to_circle
from circlebreak.partition import build_partition
from circlebreak.rotation import ContinuedFraction, convergent_error, tune_translation
from circlebreak.singularity import (
    ExperimentConfig,
    _qn_row,
    break_preimages,
    mass_length_curve,
    solve_same_orbit,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The message of the first-break closed-form audit.
FIRST_BREAK_AUDIT = "at the first break differs from its closed form"

# The case tags a cover triple (``singularity.CoverTriple``) can carry.
CASE_TAGS = ("c_outside_U", "c_in_U_left", "c_in_U_right", "a_only")


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


def quadruple_from_gaps(z1, alpha, beta, gamma):
    """The quadruple from z1 with gaps alpha, beta and gamma, the ends
    summed in order."""
    return Quadruple(z1, z1 + alpha, z1 + alpha + beta, z1 + alpha + beta + gamma)


def reference_locate(cells, x):
    """Row of the first cell, in cell order, whose half-open arc
    [left, right) holds x; ``cells`` are rows (rank_tag, index,
    left_index, right_index, left, length), a partition's ``elements``
    included."""
    for row, (_, _, _, _, left, length) in enumerate(cells):
        right = to_circle(left + length)
        if in_arc(x, left, right) and x != right:
            return row
    raise AssertionError(f"no reference cell holds {x!r}")


def sum_left_to_right(values):
    """Floats added in order, rounded after each addition: the builtin
    ``sum`` up to Python 3.11, and what ``numerics.ordered_sum`` promises."""
    total = 0.0
    for v in values:
        total += v
    return total


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


def rank_parts(m, cf, x0, ranks):
    """One partition at the deepest of ``ranks`` (ascending), cut to each
    rank, and the breaks' backward orbits on it, as singularity_report
    builds them."""
    ranks = list(ranks)
    deep = build_partition(m, cf, x0, ranks[-1])
    return [deep.coarsen(n) for n in ranks], break_preimages(m, deep)


def qn_rows(m, cf, x0, ranks):
    """singularity_report's per-rank ReportRows at ``ranks``."""
    parts, tables = rank_parts(m, cf, x0, ranks)
    return [_qn_row(m, part, tables) for part in parts]


def qn_chains(monkeypatch, m, cf, x0, ranks):
    """(quadruple, steps, ChainResult) of each distortion_chain run that
    singularity_report's rows make at ``ranks``, in rank order."""
    runs = []

    def recorded(q, m, steps):
        res = distortion_chain(q, m, steps)
        runs.append((q, steps, res))
        return res

    monkeypatch.setattr(circlebreak.singularity, "distortion_chain", recorded)
    qn_rows(m, cf, x0, ranks)
    return runs


def direct_distortion(q, m, steps):
    """(direct, direct_tol): Dist(q; f^steps) from the four endpoints
    iterated one by one on the circle, the oracle for distortion_chain,
    and the relative tolerance the chain's total must meet against it.

    The final endpoints are reassembled on one chart by arc lengths.
    Unlike the gap-tracked chain, each endpoint carries its own orbit
    roundoff, so the tolerance grows with the step count over the
    smallest reassembled gap; its floor is 1e-10.  Heuristic, not proven.
    """
    finals = [advance(m, to_circle(z), 0, steps)[0] for z in q]
    w = [finals[0]]
    for u, x in zip(finals, finals[1:]):
        w.append(w[-1] + arc_length(u, x))
    direct = cross_ratio(Quadruple(*w)) / cross_ratio(q)
    min_gap = min(b - a for a, b in zip(w, w[1:]))
    return direct, max(1e-10, 32.0 * MACHINE_EPS * steps / max(min_gap, MACHINE_EPS))


def telescoping_bound(steps):
    """(1 + u)^(2 steps) / (1 - u) - 1 with u = 2^-53: the relative
    distance a chain's total of ``steps`` factors may keep from the float
    quotient Cr(last) / Cr(first).  The float cross-ratios cancel exactly;
    each factor's quotient and each product round once, a factor 1 + u
    apiece, and the reference quotient's rounding sits in the denominator
    of the relative error, a factor 1 / (1 - u).  The subtraction in the
    comparison is exact (Sterbenz); what is not counted is the rounding of
    this bound and of its product with |Cr(last) / Cr(first)|, a few ulps
    relative to the bound itself."""
    u = MACHINE_EPS / 2
    return math.expm1(2 * steps * math.log1p(u) - math.log1p(-u))


def beta_masses(part, rho):
    """One mass per cell of ``part``, in cell order, from the convergent
    errors alone: the conjugacy to the rotation by rho carries a rank-k
    cell onto an arc of length beta_k = |q_k rho - p_k|."""
    cf, n = part.cf, part.n
    # the q_n rank-(n-1) cells come first, then the q_{n-1} rank-n cells
    return [convergent_error(cf, rho, n - 1)] * part.q_n + [
        convergent_error(cf, rho, n)
    ] * part.q_nm1


def lorenz_lengths(m, cf, x0, ranks, rho):
    """``mass_length_curve``'s lorenz_90_length of each of ``ranks``
    (ascending), with the cells' beta masses at ``rho``."""
    ranks = list(ranks)
    deep = build_partition(m, cf, x0, ranks[-1])
    return [
        mass_length_curve(part, beta_masses(part, rho)).lorenz_90_length
        for part in map(deep.coarsen, ranks)
    ]


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
    cfg = ExperimentConfig(kind="pq", a=0.2, sigma_a=2.0, sigma_c=0.8, same_orbit_steps=1)
    m, _ = solve_same_orbit(cfg, gcf)
    return m


@pytest.fixture(scope="session")
def pl_so_map(gcf):
    """Piecewise linear map with both breaks on one orbit (Herman's case)."""
    cfg = ExperimentConfig(kind="pl", a=0.2, slope_ratio=2.0, same_orbit_steps=1)
    m, _ = solve_same_orbit(cfg, gcf)
    return m
