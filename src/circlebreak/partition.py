"""Dynamical partitions of the circle and Denjoy-type estimates.

The n-th partition xi_n(x0) is assembled from the first q_n + q_{n-1}
forward orbit points of x0.  Cells are the rows of one column table
(``CellTable``, plain tuples of ints and floats) that name their ends
by orbit index, so disjointness and refinement checks reduce to exact
integer combinatorics on a single shared orbit, and every shallower
partition is cut from a prefix of the same orbit.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import repeat
from math import exp, log
from operator import sub
from typing import NamedTuple

from .errors import (
    BreakCollision,
    InvariantFailure,
    PrecisionBudgetExceeded,
    RankTooShallow,
    RefinementViolation,
)
from .maps import CircleMap, clears_breaks, df_product, iterate, map_stats
from .numerics import DEFAULT_ORBIT_CAP, MACHINE_EPS, in_arc, to_circle
from .rotation import ContinuedFraction

# Shift applied to a partition's base point when its orbit hits a break,
# and the most shifts it takes.
NUDGE = 1e-9
MAX_NUDGES = 10

# Minimum element length, in units of machine epsilon, below which the
# double-precision backend cannot certify disjointness any more.
MIN_GAP_EPS = 1.0e3

# One partition cell.  rank_tag is n-1 or n; index is the orbit iterate
# defining the cell; left_index/right_index point into the partition's
# orbit; left and length give the arc counterclockwise.
Cell = namedtuple("Cell", "rank_tag index left_index right_index left length")


class CellTable:
    """Partition cells as six tuples, one entry per cell.

    ``len`` counts the cells; ``table[row]`` and iteration read a row as
    a ``Cell``, made on demand, so no object is kept per cell.  The
    columns are read-only, and tables with equal columns are equal.
    """

    __slots__ = Cell._fields

    def __init__(self, rank_tag, index, left_index, right_index, left, length):
        for name, col in zip(
            self.__slots__, (rank_tag, index, left_index, right_index, left, length)
        ):
            object.__setattr__(self, name, col)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to CellTable column {name!r}")

    def _columns(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not CellTable:
            return NotImplemented
        return self._columns() == other._columns()

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, row: int) -> Cell:
        return Cell(*(col[row] for col in self._columns()))

    def __iter__(self):
        return map(Cell, *self._columns())


class DynamicalPartition(NamedTuple):
    """xi_n(x0) as a table of cells (``CellTable``) over ``orbit``.

    The q_n rank-(n-1) cells come first, then the q_{n-1} rank-n cells,
    each block in index order.  ``x0`` is the base point the orbit
    actually starts from, after ``nudges`` shifts off the breaks.
    """

    n: int
    x0: float
    q_n: int
    q_nm1: int
    elements: CellTable
    orbit: tuple
    nudges: int

    def total_length(self):
        # sequential, in cell order
        return sum(self.elements.length)

    def max_length(self):
        return max(self.elements.length)

    def min_length(self):
        return min(self.elements.length)

    def locate(self, x) -> int:
        """Row of the cell whose half-open arc [left, right) contains x.

        The cell starts at the circular predecessor of x among the orbit
        points.  Partition orbits keep clear of the breaks, so a break is
        never a cell end.
        """
        x = to_circle(x)
        pts = self.orbit
        # the largest point <= x; with none, x wraps to the largest point
        k = max(range(len(pts)), key=lambda i: (pts[i] <= x, pts[i]))
        row = self.elements.left_index.index(k)
        cell = self.elements[row]
        if not in_arc(x, pts[cell.left_index], pts[cell.right_index]):
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

    # one set of index objects, shared by every index column and the sort
    idx = tuple(range(total))
    # right_of[i]: the right end of the cell whose left end is point i
    right_of = [0] * total
    tags = lefts = rights = ()
    for count, tag, step in ((q_n, n - 1, q_nm1), (q_nm1, n, q_n)):
        early, late = slice(0, count), slice(step, step + count)
        l_ends, r_ends = (early, late) if tag % 2 == 0 else (late, early)
        right_of[l_ends] = idx[r_ends]
        tags += (tag,) * count
        lefts += idx[l_ends]
        rights += idx[r_ends]
    at = orbit.__getitem__
    left = tuple(map(at, lefts))
    el = CellTable(
        rank_tag=tags,
        index=idx[:q_n] + idx[:q_nm1],
        left_index=lefts,
        right_index=rights,
        left=left,
        length=tuple(map(to_circle, map(sub, map(at, rights), left))),
    )

    order = sorted(idx, key=at)
    if list(map(right_of.__getitem__, order)) != order[1:] + order[:1]:
        succ = dict(zip(order, order[1:] + order[:1]))
        e = next(e for e in el if succ[e.left_index] != e.right_index)
        raise InvariantFailure(
            f"element (tag {e.rank_tag}, index {e.index}) endpoints "
            f"{e.left_index}->{e.right_index} are not circularly adjacent; "
            "orbit order does not match the rotation combinatorics"
        )

    min_len = min(el.length)
    if min_len <= MIN_GAP_EPS * MACHINE_EPS:
        raise PrecisionBudgetExceeded(
            f"min element length {min_len:.3e} at rank {n} is below the "
            f"{MIN_GAP_EPS:.0e}*eps resolution floor; the rank is beyond "
            "binary64 resolution"
        )

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

    A collision anywhere in the q_n + q_{n-1} points (``clears_breaks``)
    shifts the base point by ``NUDGE`` and rebuilds the orbit, up to
    ``MAX_NUDGES`` times; ``DynamicalPartition.coarsen`` cuts every
    shallower rank from the same orbit.
    """
    if n < 1:
        raise ValueError("partition rank must be >= 1")
    if cf.depth < n:
        raise RankTooShallow(
            f"need {n} partial quotients to build rank {n}, have {cf.depth}"
        )
    total = cf.q(n) + cf.q(n - 1)
    x = to_circle(x0)
    for nudges in range(MAX_NUDGES + 1):
        pts = iterate(m, x, total - 1, cap=cap)
        if clears_breaks(m, pts):
            return _cut(cf, n, tuple(pts), x, nudges)
        x = to_circle(x + NUDGE)
    raise BreakCollision(
        f"orbit of {x0!r} comes too close to a break after {MAX_NUDGES} nudges"
    )


class RefinementReport(NamedTuple):
    """Each rank-(n-1) cell splits into k_next + 1 cells; ``persisted``
    rank-n cells carry over unchanged."""

    k_next: int
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

    el, fine_orbit = coarse.elements, fine.orbit
    for s in range(1, k_next + 1):
        shift = q_nm1 + s * q_n
        # rank n-1 cells fill the first q_n rows, cell i in row i
        for i, left, length in zip(el.index[:q_n], el.left, el.length):
            if to_circle(fine_orbit[i + shift] - left) > length:
                raise RefinementViolation(
                    f"boundary point {i + shift} escapes coarse cell {i}"
                )

    # coarse rank-n cell j is the fine rank-n cell j, in row j of fine: the
    # same orbit points in the same order, so the same floats bit for bit
    fel = fine.elements
    for j in range(q_nm1):
        if fel.left[j] != el.left[q_n + j] or fel.length[j] != el.length[q_n + j]:
            raise RefinementViolation(f"rank-{n} cell {j} moved between partitions")

    return RefinementReport(k_next=k_next, persisted=q_nm1)


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


class DecayFit(NamedTuple):
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
    slope, intercept = least_squares_line([(n, log(h)) for n, h in rows])
    return DecayFit(
        rows=tuple(rows),
        slope=slope,
        intercept=intercept,
        log_lambda=log(map_stats(m).lam),
    )


def least_squares_line(points):
    """(slope, intercept) of the least-squares line through (x, y) points.

    The normal equations are solved exactly in rationals from the float
    inputs and each result is rounded once, so the fit does not depend
    on the summation order or on a linear-algebra library.  Needs two
    distinct x values.
    """
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    k = len(xs)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, ys))
    det = k * sxx - sx * sx
    if det == 0:
        raise ValueError("a line fit needs two distinct x values")
    return float((k * sxy - sx * sy) / det), float((sy * sxx - sx * sxy) / det)


def partition_rows(part: DynamicalPartition):
    """Rows (n, rank_tag, index, left, length) for tabular emission, read
    lazily off the partition's columns."""
    el = part.elements
    return zip(repeat(part.n), el.rank_tag, el.index, el.left, el.length)
