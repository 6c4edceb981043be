"""Invariant-measure values along orbits via the conjugacy to rotation.

With h the conjugacy normalized by h(x0) = 0, the i-th orbit point
carries the exact value h(x_i) = {i rho}.  Every measure query below is
a circular difference of these phi values; no density estimation is
involved anywhere.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import IndexMismatch, OrderViolation, PrecisionBudgetExceeded
from .maps import CircleMap, iterate
from .numerics import DEFAULT_ORBIT_CAP, to_circle, to_circle_array
from .partition import CircleInterval, DynamicalPartition
from .rotation import ContinuedFraction, RotationEstimate, convergent_error


@dataclass(frozen=True)
class OrbitMeasure:
    """Orbit points paired with their exact conjugacy values.

    sorted_pos/sorted_idx cache the circular order of the orbit for
    bracketing queries.
    """

    m: CircleMap
    rho: RotationEstimate
    x0: float
    orbit: tuple
    phi: tuple
    sorted_pos: tuple
    sorted_idx: tuple

    @property
    def n_points(self) -> int:
        return len(self.orbit)

    def arc_mass(self, i: int, j: int):
        """Measure of the counterclockwise arc from x_i to x_j."""
        return to_circle(self.phi[j] - self.phi[i])

    def max_gap(self):
        """Largest phi mass of a gap between circularly adjacent points."""
        idx = self.sorted_idx
        n = len(idx)
        return max(self.arc_mass(idx[k], idx[(k + 1) % n]) for k in range(n))


def _circular_argsort_equal(order_a, order_b) -> bool:
    """True iff two permutations agree up to a cyclic rotation."""
    n = len(order_a)
    if n != len(order_b):
        return False
    pos = {v: k for k, v in enumerate(order_b)}
    shift = pos[order_a[0]]
    return all(order_a[k] == order_b[(shift + k) % n] for k in range(n))


def conjugacy_values(
    m: CircleMap,
    rho: RotationEstimate,
    x0,
    n_points: int,
    drift_tol: float = 1e-7,
    cap: int = DEFAULT_ORBIT_CAP,
) -> OrbitMeasure:
    """Forward orbit of x0 with phi[i] = {i rho}, order-checked.

    The orbit must be circularly ordered exactly like the rigid
    rotation orbit; any disagreement means rho is not accurate enough
    for this orbit length (or the map is not semi-conjugate at all) and
    is a hard failure.  The accumulated phi drift n_points * width(rho)
    must stay under drift_tol.
    """
    if n_points < 2:
        raise ValueError("need at least two orbit points")
    if rho.width * n_points > drift_tol:
        raise PrecisionBudgetExceeded(
            f"rho enclosure width {rho.width:.3e} lets phi drift past "
            f"{drift_tol:.1e} over {n_points} points; deepen the rho estimate"
        )
    pts = iterate(m, x0, n_points - 1, cap=cap)
    val = rho.value
    phi = tuple(to_circle(i * val) for i in range(n_points))

    order_orbit = sorted(range(n_points), key=pts.__getitem__)
    order_phi = sorted(range(n_points), key=phi.__getitem__)
    for seq, pos_arr, label in (
        (order_orbit, pts, "orbit"),
        (order_phi, phi, "phi"),
    ):
        for a, b in zip(seq, seq[1:]):
            if pos_arr[a] == pos_arr[b]:
                raise OrderViolation(
                    f"duplicate {label} positions at indices {a} and {b}; "
                    "orbit length exceeds the usable resolution"
                )
    if not _circular_argsort_equal(order_orbit, order_phi):
        raise OrderViolation(
            "orbit is not circularly ordered like the rigid rotation; "
            "rho estimate too coarse or map not semi-conjugate"
        )
    return OrbitMeasure(
        m=m,
        rho=rho,
        x0=pts[0],
        orbit=tuple(pts),
        phi=phi,
        sorted_pos=tuple(pts[k] for k in order_orbit),
        sorted_idx=tuple(order_orbit),
    )


@dataclass(frozen=True)
class MeasureBounds:
    lower: float
    upper: float

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper <= 1):
            raise ValueError(f"bad measure bounds ({self.lower}, {self.upper})")

    @property
    def width(self):
        return self.upper - self.lower


def measure_interval(om: OrbitMeasure, interval: CircleInterval) -> MeasureBounds:
    """Bracket the invariant measure of an interval by orbit points.

    The lower bound is the mass between the extreme orbit points inside
    the interval, the upper bound the mass between their outside
    neighbors; both collapse onto the truth as the orbit fills in.
    """
    if interval.length >= 1:
        return MeasureBounds(1.0, 1.0)
    pos, idx = om.sorted_pos, om.sorted_idx
    n = len(pos)
    left, right = interval.left, interval.right

    lo_k = bisect_left(pos, left)  # first point >= left, linearly
    hi_k = bisect_right(pos, right) - 1  # last point <= right, linearly
    if left <= right:
        inside_first, inside_last = lo_k, hi_k
        count = hi_k - lo_k + 1
    else:
        # Interval wraps 0; inside points are >= left or <= right.
        count = (n - lo_k) + (hi_k + 1)
        inside_first = lo_k % n
        inside_last = hi_k % n

    if count <= 0:
        lower = 0.0
        pred = (lo_k - 1) % n
        upper = om.arc_mass(idx[pred], idx[(pred + 1) % n])
        return MeasureBounds(lower, min(upper, 1.0))

    first_idx, last_idx = idx[inside_first], idx[inside_last]
    lower = om.arc_mass(first_idx, last_idx) if count > 1 else 0.0
    # The measure is nonatomic, so an endpoint sitting exactly on an
    # orbit point contributes no slack on its side.
    pred = (
        first_idx
        if pos[inside_first] == left
        else idx[(inside_first - 1) % n]
    )
    succ = (
        last_idx
        if pos[inside_last] == right
        else idx[(inside_last + 1) % n]
    )
    upper = om.arc_mass(pred, succ) if (pred, succ) != (first_idx, last_idx) else lower
    if count == n:
        upper = 1.0
    return MeasureBounds(min(lower, 1.0), min(upper, 1.0))


def partition_masses(om: OrbitMeasure, part: DynamicalPartition):
    """Exact masses of partition elements from phi differences.

    Element endpoints are orbit indices, so each mass is a single
    circular difference; per rank the difference is {q rho} for the
    same q, hence constant across elements up to rounding.  Returns a
    record array, one row per cell in the partition's order, with the
    columns rank_tag, index, left, length, mass and density.
    """
    if part.x0 != om.x0:
        raise IndexMismatch(
            f"partition base point {part.x0!r} differs from orbit base "
            f"{om.x0!r}"
        )
    total = len(part.orbit)
    if total > om.n_points:
        raise IndexMismatch(
            f"partition references orbit index {total - 1}, measure orbit has "
            f"{om.n_points} points"
        )
    diverged = np.flatnonzero(np.array(part.orbit) != np.array(om.orbit[:total]))
    if diverged.size:
        raise IndexMismatch(f"orbits diverge at index {int(diverged[0])}")
    el = part.elements
    phi = np.array(om.phi[:total])
    mass = to_circle_array(phi[el.right_index] - phi[el.left_index])
    return np.rec.fromarrays(
        [el.rank_tag, el.index, el.left, el.length, mass, mass / el.length],
        names="rank_tag,index,left,length,mass,density",
    )


def mass_identity_residual(cf: ContinuedFraction, rho, n: int):
    """q_n beta_{n-1} + q_{n-1} beta_n - 1, zero in exact arithmetic.

    beta_k is the convergent error |q_k rho - p_k|: exactly the common
    mass of the rank-k partition elements.
    """
    q_n, q_nm1 = cf.q(n), cf.q(n - 1)
    beta_nm1 = convergent_error(cf, rho, n - 1)
    beta_n = convergent_error(cf, rho, n)
    return q_n * beta_nm1 + q_nm1 * beta_n - 1.0
