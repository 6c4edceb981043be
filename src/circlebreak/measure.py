"""Invariant-measure values along orbits via the conjugacy to rotation.

With h the conjugacy normalized by h(x0) = 0, the i-th orbit point
carries the exact value h(x_i) = {i rho}.  Orbit measures are circular
differences of these phi values; partition masses also have the closed
form beta_k = |q_k rho - p_k|.  No density estimation is involved
anywhere.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import OrderViolation, PrecisionBudgetExceeded
from .maps import CircleMap, advance, check_orbit_length
from .numerics import DEFAULT_ORBIT_CAP, to_circle
from .partition import DynamicalPartition
from .rotation import ContinuedFraction, RotationEstimate, convergent_error


class OrbitMeasure(NamedTuple):
    """A partition's orbit, extended, with the exact conjugacy values.

    ``orbit`` starts with ``part.orbit``, so partition masses read
    ``phi`` at the cells' own orbit indices.
    """

    part: DynamicalPartition
    rho: RotationEstimate
    orbit: tuple
    phi: tuple

    @property
    def n_points(self) -> int:
        return len(self.orbit)


def _circular_argsort_equal(order_a, order_b) -> bool:
    """True iff two permutations of one range agree up to a cyclic rotation."""
    n = len(order_a)
    pos = {v: k for k, v in enumerate(order_b)}
    shift = pos[order_a[0]]
    return all(order_a[k] == order_b[(shift + k) % n] for k in range(n))


def conjugacy_values(
    m: CircleMap,
    rho: RotationEstimate,
    part: DynamicalPartition,
    n_points: int,
    drift_tol: float = 1e-7,
    cap: int = DEFAULT_ORBIT_CAP,
) -> OrbitMeasure:
    """Orbit of ``part.x0`` to n_points points, phi[i] = {i rho}, order-checked.

    The partition's orbit is extended from its last point; ``advance``
    does not read the winding, so the points are bit-identical to an
    orbit iterated afresh from the base point.  ``cap`` bounds the whole
    orbit, n_points - 1 map steps.

    The orbit must be circularly ordered exactly like the rigid
    rotation orbit; any disagreement means rho is not accurate enough
    for this orbit length (or the map is not semi-conjugate at all) and
    is a hard failure.  The accumulated phi drift n_points * width(rho)
    must stay under drift_tol.
    """
    pts = list(part.orbit)
    if n_points < len(pts):
        raise ValueError(
            f"{n_points} points cannot extend the partition orbit of {len(pts)}"
        )
    if rho.width * n_points > drift_tol:
        raise PrecisionBudgetExceeded(
            f"rho enclosure width {rho.width:.3e} lets phi drift past "
            f"{drift_tol:.1e} over {n_points} points; deepen the rho estimate"
        )
    check_orbit_length(n_points - 1, cap)
    advance(m, pts[-1], 0, n_points - len(pts), pts)
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
    return OrbitMeasure(part=part, rho=rho, orbit=tuple(pts), phi=phi)


def partition_masses(om: OrbitMeasure):
    """Exact masses of the cells of ``om.part`` from phi differences.

    Element endpoints are orbit indices, so each mass is a single
    circular difference; per rank the difference is {q rho} for the
    same q, hence constant across elements up to rounding.  Returns a
    list, one mass per cell in the partition's order.
    """
    el, phi = om.part.elements, om.phi
    return [to_circle(phi[r] - phi[l]) for l, r in zip(el.left_index, el.right_index)]


def convergent_masses(part: DynamicalPartition, cf: ContinuedFraction, rho):
    """Masses of the cells of xi_n from the convergent errors alone.

    The conjugacy to the rotation by rho carries a rank-k cell onto an
    arc of length beta_k = |q_k rho - p_k|, so every cell of xi_n has
    mass beta_{n-1} or beta_n by its rank tag; no orbit is needed.
    Returns a list, one mass per cell in the partition's order.
    """
    n = part.n
    if cf.depth < n or (cf.q(n), cf.q(n - 1)) != (part.q_n, part.q_nm1):
        raise ValueError("continued fraction does not match the partition")
    beta_nm1, beta_n = convergent_error(cf, rho, n - 1), convergent_error(cf, rho, n)
    # the q_n rank-(n-1) cells come first, then the q_{n-1} rank-n cells
    return [beta_nm1] * part.q_n + [beta_n] * part.q_nm1


def mass_identity_residual(cf: ContinuedFraction, rho, n: int):
    """q_n beta_{n-1} + q_{n-1} beta_n - 1, zero in exact arithmetic.

    beta_k is the convergent error |q_k rho - p_k|: exactly the common
    mass of the rank-k partition elements.
    """
    q_n, q_nm1 = cf.q(n), cf.q(n - 1)
    beta_nm1 = convergent_error(cf, rho, n - 1)
    beta_n = convergent_error(cf, rho, n)
    return q_n * beta_nm1 + q_nm1 * beta_n - 1.0
