"""Dynamical partitions of the circle and Denjoy-type estimates.

The n-th partition xi_n(x0) is assembled from the first q_n + q_{n-1}
forward orbit points of x0.  Elements are stored by orbit index, not by
re-evaluated endpoints, so disjointness and refinement checks reduce to
exact integer combinatorics on a single shared orbit array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, log

import numpy as np

from .errors import (
    InvariantFailure,
    PrecisionBudgetExceeded,
    RankTooShallow,
    RefinementViolation,
)
from .maps import CircleMap, df, iterate, map_stats, orbit_avoiding_breaks
from .numerics import DEFAULT_ORBIT_CAP, MACHINE_EPS, arc_length, in_arc, to_circle
from .rotation import ContinuedFraction

# Minimum element length, in units of machine epsilon, below which the
# double-precision backend cannot certify disjointness any more.
MIN_GAP_EPS = 1.0e3


@dataclass(frozen=True)
class CircleInterval:
    """Arc going counterclockwise from ``left`` over ``length``.

    length is allowed to reach 1 so that the full circle is expressible
    as a measurement domain; proper partition elements stay below 1.
    """

    left: float
    length: float

    def __post_init__(self):
        if not (0 < self.length <= 1):
            raise ValueError(f"interval length must lie in (0, 1], got {self.length}")

    @property
    def right(self) -> float:
        return to_circle(self.left + self.length)

    def contains(self, x) -> bool:
        return in_arc(x, self.left, self.right) if self.length < 1 else True


@dataclass(frozen=True)
class PartitionElement:
    """One cell of a dynamical partition.

    rank_tag is n-1 or n; index is the orbit iterate defining the cell.
    left_index/right_index point into the parent's orbit array.
    """

    interval: CircleInterval
    rank_tag: int
    index: int
    left_index: int
    right_index: int


@dataclass(frozen=True)
class DynamicalPartition:
    n: int
    x0: float
    q_n: int
    q_nm1: int
    elements: tuple
    orbit: tuple
    nudges: int

    def rank_elements(self, rank_tag: int):
        return [e for e in self.elements if e.rank_tag == rank_tag]

    def total_length(self):
        return sum(e.interval.length for e in self.elements)

    def max_length(self):
        return max(e.interval.length for e in self.elements)

    def min_length(self):
        return min(e.interval.length for e in self.elements)

    def locate(self, x) -> PartitionElement:
        """Element whose half-open arc [left, right) contains x."""
        for e in self.elements:
            if in_arc(x, e.interval.left, e.interval.right) and not (
                x == e.interval.right
            ):
                return e
        # x coincides with a shared endpoint that every half-open test
        # excluded on the right; fall back to the closed test.
        for e in self.elements:
            if in_arc(x, e.interval.left, e.interval.right):
                return e
        raise InvariantFailure(f"no partition element contains {x!r}")


def _oriented(idx_a: int, idx_b: int, parity_even: bool):
    # parity_even: the later orbit point (idx_b) sits to the right of idx_a.
    return (idx_a, idx_b) if parity_even else (idx_b, idx_a)


def build_partition(
    m: CircleMap,
    cf: ContinuedFraction,
    x0,
    n: int,
    cap: int = DEFAULT_ORBIT_CAP,
) -> DynamicalPartition:
    """Assemble xi_n(x0) and verify it tiles the circle.

    Rank-(n-1) cells pair orbit indices (i, i+q_{n-1}) for i < q_n and
    rank-n cells pair (j, j+q_n) for j < q_{n-1}; which end is left
    follows the parity alternation of the convergents.  Verification is
    combinatorial: each cell's endpoints must be circularly adjacent
    among all q_n + q_{n-1} orbit points, every gap used exactly once.
    """
    if n < 1:
        raise ValueError("partition rank must be >= 1")
    if cf.depth < n:
        raise RankTooShallow(
            f"need {n} partial quotients to build rank {n}, have {cf.depth}"
        )
    q_n, q_nm1 = cf.q(n), cf.q(n - 1)
    total = q_n + q_nm1
    pts, x0_used, nudges = orbit_avoiding_breaks(m, x0, total - 1, cap=cap)

    elements = []
    nm1_even = (n - 1) % 2 == 0
    for i in range(q_n):
        li, ri = _oriented(i, i + q_nm1, nm1_even)
        length = arc_length(pts[li], pts[ri])
        elements.append(
            PartitionElement(CircleInterval(pts[li], length), n - 1, i, li, ri)
        )
    n_even = n % 2 == 0
    for j in range(q_nm1):
        lj, rj = _oriented(j, j + q_n, n_even)
        length = arc_length(pts[lj], pts[rj])
        elements.append(
            PartitionElement(CircleInterval(pts[lj], length), n, j, lj, rj)
        )

    # Adjacency audit.  argsort the orbit; successor in sorted circular
    # order must match each element's right endpoint index.
    order = sorted(range(total), key=pts.__getitem__)
    succ = {order[k]: order[(k + 1) % total] for k in range(total)}
    seen = set()
    for e in elements:
        if succ.get(e.left_index) != e.right_index:
            raise InvariantFailure(
                f"element (tag {e.rank_tag}, index {e.index}) endpoints "
                f"{e.left_index}->{e.right_index} are not circularly adjacent; "
                "orbit order does not match the rotation combinatorics"
            )
        if e.left_index in seen:
            raise InvariantFailure(f"orbit gap at index {e.left_index} used twice")
        seen.add(e.left_index)

    min_len = min(e.interval.length for e in elements)
    if min_len <= MIN_GAP_EPS * MACHINE_EPS:
        raise PrecisionBudgetExceeded(
            f"min element length {min_len:.3e} at rank {n} is below the "
            f"{MIN_GAP_EPS:.0e}*eps resolution floor; the rank is beyond "
            "binary64 resolution"
        )

    tot = sum(e.interval.length for e in elements)
    if abs(tot - 1) > q_n * 10 * MACHINE_EPS:
        raise InvariantFailure(f"partition total length {tot!r} deviates from 1")

    return DynamicalPartition(
        n=n,
        x0=x0_used,
        q_n=q_n,
        q_nm1=q_nm1,
        elements=tuple(elements),
        orbit=tuple(pts),
        nudges=nudges,
    )


@dataclass(frozen=True)
class RefinementReport:
    n_coarse: int
    k_next: int
    split_counts: tuple
    persisted: int


def check_refinement(
    coarse: DynamicalPartition,
    fine: DynamicalPartition,
    cf: ContinuedFraction,
) -> RefinementReport:
    """Verify xi_{n+1} refines xi_n cell by cell.

    Each rank-(n-1) cell of the coarse partition must split into one
    rank-(n+1) cell plus k_{n+1} rank-n cells with orbit indices
    i + q_{n-1} + s*q_n, and the coarse rank-n cells must reappear in
    the fine partition untouched.
    """
    n = coarse.n
    if fine.n != n + 1:
        raise ValueError(f"fine rank {fine.n} must be coarse rank {n} plus one")
    if fine.x0 != coarse.x0:
        raise ValueError("partitions were built from different base points")
    if cf.depth < n + 1:
        raise RankTooShallow(f"need quotient k_{n + 1}")

    k_next = cf.quotients[n]  # k_{n+1}, quotients are 1-based
    q_n, q_nm1 = cf.q(n), cf.q(n - 1)

    fine_by_key = {(e.rank_tag, e.index): e for e in fine.elements}
    split_counts = []
    for e in coarse.rank_elements(n - 1):
        i = e.index
        pieces = []
        deep = fine_by_key.get((n + 1, i))
        if deep is None:
            raise RefinementViolation(
                f"rank-{n + 1} piece with index {i} missing from the fine partition"
            )
        pieces.append(deep)
        for s in range(k_next):
            idx = i + q_nm1 + s * q_n
            mid = fine_by_key.get((n, idx))
            if mid is None:
                raise RefinementViolation(
                    f"rank-{n} piece with index {idx} missing while splitting "
                    f"coarse cell {i}"
                )
            pieces.append(mid)
        # Exact chain check on orbit indices modulo orientation: the piece
        # boundaries must form a path between the coarse cell's endpoints.
        boundary = {e.left_index, e.right_index}
        ends = []
        inner = {}
        for p in pieces:
            for idx2 in (p.left_index, p.right_index):
                inner[idx2] = inner.get(idx2, 0) + 1
        for idx2, cnt in inner.items():
            if cnt == 1:
                ends.append(idx2)
            elif cnt != 2:
                raise RefinementViolation(
                    f"piece boundary index {idx2} used {cnt} times in cell {i}"
                )
        if sorted(ends) != sorted(boundary):
            raise RefinementViolation(
                f"pieces of coarse cell {i} do not chain between its endpoints"
            )
        # Interior boundaries must fall inside the coarse cell.
        for idx2 in inner:
            if idx2 in boundary:
                continue
            if not in_arc(fine.orbit[idx2], e.interval.left, e.interval.right):
                raise RefinementViolation(
                    f"boundary point {idx2} escapes coarse cell {i}"
                )
        split_counts.append(len(pieces))
        if len(pieces) != k_next + 1:
            raise RefinementViolation(
                f"coarse cell {i} split into {len(pieces)} pieces, "
                f"expected {k_next + 1}"
            )

    persisted = 0
    for e in coarse.rank_elements(n):
        twin = fine_by_key.get((n, e.index))
        if twin is None:
            raise RefinementViolation(
                f"rank-{n} cell {e.index} of the coarse partition disappeared"
            )
        if (twin.left_index, twin.right_index) != (e.left_index, e.right_index):
            raise RefinementViolation(
                f"rank-{n} cell {e.index} changed its orbit indices"
            )
        if abs(twin.interval.left - e.interval.left) > 1e-12 or abs(
            twin.interval.length - e.interval.length
        ) > 1e-12:
            raise RefinementViolation(
                f"rank-{n} cell {e.index} moved between partitions"
            )
        persisted += 1

    return RefinementReport(
        n_coarse=n,
        k_next=k_next,
        split_counts=tuple(split_counts),
        persisted=persisted,
    )


def df_product(m: CircleMap, x0, steps: int, cap: int = DEFAULT_ORBIT_CAP):
    """Product of Df along the first ``steps`` orbit points of x0.

    The orbit is not nudged: a point too close to a break raises
    BreakCollision.
    """
    if steps < 1:
        return 1.0
    pts, _, _ = orbit_avoiding_breaks(m, x0, steps - 1, cap=cap, retries=0)
    # math.prod multiplies in orbit order, as a running product would
    return math.prod(df(m, pts).tolist())


def denjoy_product(
    m: CircleMap,
    cf: ContinuedFraction,
    x0,
    n: int,
    cap: int = DEFAULT_ORBIT_CAP,
):
    """Df-product over q_n steps; certified to lie in [e^{-v}, e^{v}].

    The orbit must clear the break points on its own: no nudging here,
    the bound is only a theorem for orbits avoiding the breaks.
    """
    if cf.depth < n:
        raise RankTooShallow(f"need {n} partial quotients, have {cf.depth}")
    q_n = cf.q(n)
    prod = df_product(m, x0, q_n, cap=cap)
    v = map_stats(m).v
    lo, hi = exp(-v), exp(v)
    slack = 1e-9
    if not (lo * (1 - slack) <= prod <= hi * (1 + slack)):
        raise InvariantFailure(
            f"Denjoy product {prod!r} escapes [e^-v, e^v] = [{lo!r}, {hi!r}] "
            f"at rank {n}"
        )
    return prod


@dataclass(frozen=True)
class DecayFit:
    rows: tuple  # (n, max element length)
    slope: float
    intercept: float
    log_lambda: float

    @property
    def margin(self) -> float:
        return self.log_lambda - self.slope

    @property
    def within_bound(self) -> bool:
        return self.slope <= self.log_lambda + 1e-9


def max_element_decay(
    m: CircleMap,
    cf: ContinuedFraction,
    x0,
    n_max: int,
    cap: int = DEFAULT_ORBIT_CAP,
) -> DecayFit:
    """Max cell length of xi_n for n = 1..n_max, with a log-linear fit.

    The fitted slope is compared against log lambda, lambda =
    (1 + e^{-v})^{-1/2}; the empirical rate should be at least as fast.
    """
    rows = []
    for n in range(1, n_max + 1):
        part = build_partition(m, cf, x0, n, cap=cap)
        rows.append((n, float(part.max_length())))
    ns = np.array([r[0] for r in rows], dtype=float)
    logs = np.log(np.array([r[1] for r in rows]))
    slope, intercept = np.polyfit(ns, logs, 1)
    lam = map_stats(m).lam
    return DecayFit(
        rows=tuple(rows),
        slope=float(slope),
        intercept=float(intercept),
        log_lambda=float(log(lam)),
    )


def endpoint_condition(
    m: CircleMap,
    cf: ContinuedFraction,
    interval: CircleInterval,
    n: int,
    cap: int = DEFAULT_ORBIT_CAP,
) -> bool:
    """Sufficient endpoint test for q_n-smallness.

    By convergent parity the interval is q_n-small whenever it fits
    inside a single hop of T^{q_{n-1}}: for even n-1 the hop from the
    left endpoint runs rightward, for odd n-1 the hop into the right
    endpoint runs leftward.
    """
    q_nm1 = cf.q(n - 1)
    if (n - 1) % 2 == 0:
        hop = iterate(m, interval.left, q_nm1, cap=cap)[-1]
        return interval.length <= arc_length(interval.left, hop)
    hop = iterate(m, interval.right, q_nm1, cap=cap)[-1]
    return interval.length <= arc_length(hop, interval.right)


def is_qn_small(
    m: CircleMap,
    cf: ContinuedFraction,
    interval: CircleInterval,
    n: int,
    cap: int = DEFAULT_ORBIT_CAP,
) -> bool:
    """True iff T^i(interval), 0 <= i < q_n, have disjoint interiors.

    Cross-checks the parity endpoint criterion: whenever that sufficient
    condition holds the direct test must agree, otherwise the orbit
    combinatorics are broken and we refuse to answer.
    """
    if cf.depth < n:
        raise RankTooShallow(f"need {n} partial quotients, have {cf.depth}")
    q_n = cf.q(n)
    if q_n == 1:
        return True
    if interval.length >= 1:
        return False

    lefts = iterate(m, interval.left, q_n - 1, cap=cap)
    rights = iterate(m, interval.right, q_n - 1, cap=cap)
    lengths = [arc_length(lefts[i], rights[i]) for i in range(q_n)]
    tol = 10 * MACHINE_EPS * q_n

    order = sorted(range(q_n), key=lefts.__getitem__)
    disjoint = True
    for k in range(q_n):
        a, b = order[k], order[(k + 1) % q_n]
        gap = arc_length(lefts[a], lefts[b])
        if lengths[a] > gap + tol:
            disjoint = False
            break

    if endpoint_condition(m, cf, interval, n, cap=cap) and not disjoint:
        raise InvariantFailure(
            f"interval satisfies the parity endpoint criterion at rank {n} "
            "but its iterates overlap"
        )
    return disjoint


def partition_rows(part: DynamicalPartition):
    """Rows (n, rank_tag, index, left, length) for tabular emission."""
    return [
        (part.n, e.rank_tag, e.index, float(e.interval.left), float(e.interval.length))
        for e in part.elements
    ]
