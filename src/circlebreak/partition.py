"""Dynamical partitions of the circle and Denjoy-type estimates.

The n-th partition xi_n(x0) is assembled from the first q_n + q_{n-1}
forward orbit points of x0.  Cells are rows of one record array that
name their ends by orbit index, so disjointness and refinement checks
reduce to exact integer combinatorics on a single shared orbit, and
every shallower partition is cut from a prefix of the same orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from math import exp, log

import numpy as np

from .errors import (
    InvariantFailure,
    PrecisionBudgetExceeded,
    RankTooShallow,
    RefinementViolation,
)
from .maps import CircleMap, df, iterate, map_stats, orbit_avoiding_breaks
from .numerics import (
    DEFAULT_ORBIT_CAP,
    MACHINE_EPS,
    arc_length,
    in_arc,
    to_circle,
    to_circle_array,
)
from .rotation import ContinuedFraction

# Minimum element length, in units of machine epsilon, below which the
# double-precision backend cannot certify disjointness any more.
MIN_GAP_EPS = 1.0e3

# One partition cell per row.  rank_tag is n-1 or n; index is the orbit
# iterate defining the cell; left_index/right_index point into the
# partition's orbit; left and length give the arc counterclockwise.
CELL_DTYPE = np.dtype(
    [
        ("rank_tag", np.int64),
        ("index", np.int64),
        ("left_index", np.int64),
        ("right_index", np.int64),
        ("left", np.float64),
        ("length", np.float64),
    ]
)


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


@dataclass(frozen=True, eq=False)
class DynamicalPartition:
    """xi_n(x0) as a record array of cells (``CELL_DTYPE``) over ``orbit``.

    The q_n rank-(n-1) cells come first, then the q_{n-1} rank-n cells,
    each block in index order.  ``x0`` is the base point the orbit
    actually starts from, after ``nudges`` shifts off the breaks.
    """

    n: int
    x0: float
    q_n: int
    q_nm1: int
    elements: np.recarray
    orbit: tuple
    nudges: int

    def total_length(self):
        # sequential, in cell order: np.sum would add pairwise, other bytes
        return sum(self.elements.length.tolist())

    def max_length(self):
        return float(self.elements.length.max())

    def min_length(self):
        return float(self.elements.length.min())

    def locate(self, x) -> int:
        """Row of the cell whose half-open arc [left, right) contains x.

        The cell starts at the circular predecessor of x among the orbit
        points.  Partition orbits keep clear of the breaks, so a break is
        never a cell end.
        """
        x = to_circle(x)
        xs = np.array(self.orbit)
        order = np.argsort(xs, kind="stable")
        # k = -1 (x below every point) wraps to the last point
        k = int(np.searchsorted(xs[order], x, side="right")) - 1
        row = int(np.flatnonzero(self.elements.left_index == order[k])[0])
        cell = self.elements[row]
        if not in_arc(x, self.orbit[cell.left_index], self.orbit[cell.right_index]):
            raise InvariantFailure(f"no partition element contains {x!r}")
        return row

    def coarsen(self, cf: ContinuedFraction, k: int) -> "DynamicalPartition":
        """xi_k(x0), k <= n, cut from the first q_k + q_{k-1} orbit points."""
        if not 1 <= k <= self.n:
            raise ValueError(f"cannot cut rank {k} from a rank-{self.n} partition")
        if cf.depth < self.n or (cf.q(self.n), cf.q(self.n - 1)) != (
            self.q_n,
            self.q_nm1,
        ):
            raise ValueError("continued fraction does not match the partition")
        if k == self.n:
            return self
        return _cut(cf, k, self.orbit, self.x0, self.nudges)


def _cut(cf: ContinuedFraction, n: int, orbit: tuple, x0, nudges: int):
    """Assemble xi_n from the first q_n + q_{n-1} points of ``orbit``.

    Rank-(n-1) cells pair orbit indices (i, i+q_{n-1}) for i < q_n and
    rank-n cells pair (j, j+q_n) for j < q_{n-1}; for an even rank the
    later orbit point is the right end, for an odd rank the left end.
    The audit: each cell's right end must be the circular successor of
    its left end among all the orbit points.  Left ends are used once
    each by construction (one block takes 0..q-1, the other the rest).
    """
    q_n, q_nm1 = cf.q(n), cf.q(n - 1)
    total = q_n + q_nm1
    orbit = orbit[:total]
    xs = np.array(orbit)

    el = np.empty(total, CELL_DTYPE).view(np.recarray)
    for rows, tag, step in ((slice(0, q_n), n - 1, q_nm1), (slice(q_n, total), n, q_n)):
        idx = np.arange(rows.stop - rows.start)
        el.rank_tag[rows] = tag
        el.index[rows] = idx
        early, late = (idx, idx + step) if tag % 2 == 0 else (idx + step, idx)
        el.left_index[rows] = early
        el.right_index[rows] = late
    el.left = xs[el.left_index]
    el.length = to_circle_array(xs[el.right_index] - el.left)

    order = np.argsort(xs, kind="stable")
    succ = np.empty(total, dtype=np.int64)
    succ[order] = np.roll(order, -1)
    bad = np.flatnonzero(succ[el.left_index] != el.right_index)
    if bad.size:
        e = el[bad[0]]
        raise InvariantFailure(
            f"element (tag {e.rank_tag}, index {e.index}) endpoints "
            f"{e.left_index}->{e.right_index} are not circularly adjacent; "
            "orbit order does not match the rotation combinatorics"
        )

    min_len = float(el.length.min())
    if min_len <= MIN_GAP_EPS * MACHINE_EPS:
        raise PrecisionBudgetExceeded(
            f"min element length {min_len:.3e} at rank {n} is below the "
            f"{MIN_GAP_EPS:.0e}*eps resolution floor; the rank is beyond "
            "binary64 resolution"
        )

    tot = sum(el.length.tolist())
    if abs(tot - 1) > q_n * 10 * MACHINE_EPS:
        raise InvariantFailure(f"partition total length {tot!r} deviates from 1")

    el.flags.writeable = False
    return DynamicalPartition(
        n=n, x0=x0, q_n=q_n, q_nm1=q_nm1, elements=el, orbit=orbit, nudges=nudges
    )


def build_partition(
    m: CircleMap,
    cf: ContinuedFraction,
    x0,
    n: int,
    cap: int = DEFAULT_ORBIT_CAP,
) -> DynamicalPartition:
    """Assemble xi_n(x0) on an orbit of x0 that clears the breaks.

    A collision anywhere in the q_n + q_{n-1} points nudges the base
    point (``orbit_avoiding_breaks``); ``DynamicalPartition.coarsen``
    cuts every shallower rank from the same orbit.
    """
    if n < 1:
        raise ValueError("partition rank must be >= 1")
    if cf.depth < n:
        raise RankTooShallow(
            f"need {n} partial quotients to build rank {n}, have {cf.depth}"
        )
    total = cf.q(n) + cf.q(n - 1)
    pts, x0_used, nudges = orbit_avoiding_breaks(m, x0, total - 1, cap=cap)
    return _cut(cf, n, tuple(pts), x0_used, nudges)


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

    The rank-(n-1) cell i of the coarse partition, between orbit points
    i and i + q_{n-1}, splits into the rank-(n+1) cell i and k_{n+1}
    rank-n cells i + q_{n-1} + s*q_n, s < k_{n+1}; these chain between
    the coarse ends because i + q_{n-1} + k_{n+1} q_n = i + q_{n+1}.
    What the orbit decides is checked: the interior boundary points
    i + q_{n-1} + s*q_n, 0 < s <= k_{n+1}, lie in the coarse cell, and
    the coarse rank-n cells reappear in the fine partition with the same
    left end and length.
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

    cells = coarse.elements[:q_n]  # rank n-1, cell i in row i
    fine_xs = np.array(fine.orbit)
    for s in range(1, k_next + 1):
        inner = cells.index + q_nm1 + s * q_n
        escaped = np.flatnonzero(
            to_circle_array(fine_xs[inner] - cells.left) > cells.length
        )
        if escaped.size:
            i = int(escaped[0])
            raise RefinementViolation(
                f"boundary point {int(inner[i])} escapes coarse cell {i}"
            )

    # coarse rank-n cell j is the fine rank-n cell j, in row j of fine
    kept, twin = coarse.elements[q_n:], fine.elements[:q_nm1]
    moved = np.flatnonzero(
        (np.abs(twin.left - kept.left) > 1e-12)
        | (np.abs(twin.length - kept.length) > 1e-12)
    )
    if moved.size:
        raise RefinementViolation(
            f"rank-{n} cell {int(moved[0])} moved between partitions"
        )

    return RefinementReport(
        n_coarse=n,
        k_next=k_next,
        split_counts=(k_next + 1,) * q_n,
        persisted=q_nm1,
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
    m: CircleMap, cf: ContinuedFraction, part: DynamicalPartition
) -> DecayFit:
    """Max cell length of xi_n for n = 1..part.n, with a log-linear fit.

    Every rank is cut from ``part``'s orbit.  The fitted slope is
    compared against log lambda, lambda = (1 + e^{-v})^{-1/2}; the
    empirical rate should be at least as fast.
    """
    rows = [(n, part.coarsen(cf, n).max_length()) for n in range(1, part.n + 1)]
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
    el = part.elements
    return list(
        zip(
            repeat(part.n),
            el.rank_tag.tolist(),
            el.index.tolist(),
            el.left.tolist(),
            el.length.tolist(),
        )
    )
