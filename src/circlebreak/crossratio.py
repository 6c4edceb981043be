"""Cross-ratio distortion machinery for maps with break points.

Quadruples live in lift coordinates on a single chart (hull shorter
than one full turn).  Images are propagated gap by gap so that the
telescoping product over an orbit stays accurate even when the hull is
many orders of magnitude below 1.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    BreakNotInStatedInterval,
    DegenerateQuadruple,
    InvariantFailure,
)
from .maps import (
    BreakPoint,
    CircleMap,
    abs_d2f_integral,
    advance,
    evaluate,
    gap_image,
    min_break_distance,
)
from .numerics import MACHINE_EPS, arc_length, to_circle

# Gaps below this multiple of eps*hull carry no usable cross-ratio
# information and are rejected outright.
DEGENERACY_EPS = 10.0


class _QuadrupleFields(NamedTuple):
    z1: float
    z2: float
    z3: float
    z4: float


class Quadruple(_QuadrupleFields):
    """Four lift points z1 < z2 < z3 < z4, as a tuple of the four.

    Pure cross-ratio arithmetic accepts any hull; pushing a quadruple
    through a circle map additionally requires the hull to fit on one
    chart (length < 1), enforced at application time.
    """

    __slots__ = ()

    def __new__(cls, z1, z2, z3, z4):
        zs = (z1, z2, z3, z4)
        floor = DEGENERACY_EPS * MACHINE_EPS * max(z4 - z1, MACHINE_EPS)
        for u, w in zip(zs, zs[1:]):
            if not w - u > floor:
                raise DegenerateQuadruple(
                    f"gap {w - u!r} between {u!r} and {w!r} is below the "
                    "degeneracy floor"
                )
        return tuple.__new__(cls, zs)

    @property
    def gaps(self):
        z1, z2, z3, z4 = self
        return (z2 - z1, z3 - z2, z4 - z3)

    @property
    def hull(self):
        return self.z4 - self.z1

    @classmethod
    def from_gaps(cls, z1, alpha, beta, gamma) -> "Quadruple":
        return cls(z1, z1 + alpha, z1 + alpha + beta, z1 + alpha + beta + gamma)


def cross_ratio(q: Quadruple):
    """(z2-z1)(z4-z3) / ((z3-z1)(z4-z2)), always in (0, 1).

    Evaluated from the gaps so tiny quadruples keep full relative
    precision.
    """
    a, b, c = q.gaps
    return (a * c) / ((a + b) * (b + c))


def lift_into(x, lo):
    """The unique lift of the circle point x lying in [lo, lo + 1)."""
    return lo + arc_length(to_circle(lo), x)


def chain_points(m: CircleMap, pts, steps: int):
    """Orbit of an increasing lift tuple, propagated gap by gap.

    Each step anchors the leftmost image on its circle representative
    and adds the per-gap increments from gap_image, so consecutive
    differences stay positive and relatively accurate.  Returns a list
    of steps + 1 tuples.
    """
    for u, w in zip(pts, pts[1:]):
        if not w > u:
            raise DegenerateQuadruple("tracked points must be strictly increasing")
    if not pts[-1] - pts[0] < 1:
        raise DegenerateQuadruple("tracked hull does not fit on one chart")
    out = [tuple(pts)]
    cur = tuple(pts)
    for k in range(steps):
        anchor = to_circle(evaluate(m, cur[0]))
        imgs = [anchor]
        for u, w in zip(cur, cur[1:]):
            imgs.append(imgs[-1] + gap_image(m, u, w))
        if not imgs[-1] - imgs[0] < 1:
            raise DegenerateQuadruple(f"hull wrapped the circle at step {k + 1}")
        cur = tuple(imgs)
        out.append(cur)
    return out


def image_quadruple(q: Quadruple, m: CircleMap) -> Quadruple:
    return Quadruple(*chain_points(m, q, 1)[1])


def _callable_image(q: Quadruple, fn) -> Quadruple:
    w = [fn(z) for z in q]
    if not (w[0] < w[1] < w[2] < w[3]):
        raise DegenerateQuadruple("images are not strictly increasing")
    return Quadruple(*w)


def distortion(q: Quadruple, m):
    """Cr(f z1..f z4) / Cr(z1..z4) for a CircleMap or a plain callable."""
    if isinstance(m, CircleMap):
        img = image_quadruple(q, m)
    else:
        img = _callable_image(q, m)
    return cross_ratio(img) / cross_ratio(q)


class ChainResult(NamedTuple):
    total: float
    factors: tuple
    quadruples: tuple
    direct: float

    @property
    def steps(self) -> int:
        return len(self.factors)


def distortion_chain(q: Quadruple, m: CircleMap, steps: int) -> ChainResult:
    """Dist(q; f^steps) as a product of one-step distortions.

    The factored product telescopes to Cr(final)/Cr(initial) exactly;
    as an independent check the endpoints are also iterated one by one
    on the circle and the resulting distortion must agree to 1e-10
    relative.
    """
    track = chain_points(m, q, steps)
    quads = tuple(Quadruple(*t) for t in track)
    crs = [cross_ratio(x) for x in quads]
    factors = tuple(crs[k + 1] / crs[k] for k in range(steps))
    total = 1.0
    for fct in factors:
        total *= fct
    telescoped = crs[-1] / crs[0]
    if abs(total - telescoped) > 1e-12 * abs(telescoped):
        raise InvariantFailure(
            f"factor product {total!r} drifted from the telescoped "
            f"ratio {telescoped!r}"
        )

    # Independent endpoint iteration; reassemble a chart via arc lengths.
    # Unlike the gap-tracked chain, each endpoint carries its own orbit
    # roundoff, so the comparison degrades with the step count over the
    # smallest reassembled gap; the tolerance floor stays at 1e-10.
    finals = [advance(m, to_circle(z), 0, steps)[0] for z in q]
    w = [finals[0]]
    for u, x in zip(finals, finals[1:]):
        w.append(w[-1] + arc_length(u, x))
    direct = cross_ratio(Quadruple(*w)) / crs[0]
    min_gap = min(b - a_ for a_, b in zip(w, w[1:]))
    direct_tol = max(1e-10, 32.0 * MACHINE_EPS * steps / max(min_gap, MACHINE_EPS))
    if abs(total - direct) > direct_tol * abs(direct):
        raise InvariantFailure(
            f"chain total {total!r} disagrees with the directly iterated "
            f"distortion {direct!r} beyond {direct_tol:.3e}"
        )
    return ChainResult(total=total, factors=factors, quadruples=quads, direct=direct)


class NormalizedCoords(NamedTuple):
    """Gap ratios of a quadruple, with the break coordinate when tracked.

    xi and eta always exist; z is set when the tracked point lies in
    [z1, z2], theta when it lies in [z3, z4].
    """

    xi: float
    eta: float
    z: float | None = None
    theta: float | None = None


def normalized_coords(q: Quadruple, cbar=None) -> NormalizedCoords:
    alpha, beta, gamma = q.gaps
    xi = beta / alpha
    eta = beta / gamma
    z = theta = None
    if cbar is not None:
        if q.z1 <= cbar <= q.z2:
            z = (q.z2 - cbar) / alpha
        elif q.z3 <= cbar <= q.z4:
            theta = (cbar - q.z3) / gamma
        else:
            raise BreakNotInStatedInterval(
                f"tracked point {cbar!r} lies in the middle gap or outside "
                f"the hull [{q.z1!r}, {q.z4!r}]"
            )
    return NormalizedCoords(xi=xi, eta=eta, z=z, theta=theta)


def g_func(x, sigma):
    """sigma (1+x) / (sigma + x); the zero-offset slice of f_func."""
    if not x > 0:
        raise ValueError(f"need x > 0, got {x!r}")
    if not sigma > 0:
        raise ValueError(f"need sigma > 0, got {sigma!r}")
    return sigma * (1 + x) / (sigma + x)


def f_func(x, t, sigma):
    """[sigma + (1-sigma) t](1+x) / (sigma + (1-sigma) t + x).

    t = 0 recovers g_func; t = 1 collapses to 1 for every x.
    """
    if not x > 0:
        raise ValueError(f"need x > 0, got {x!r}")
    if not 0 <= t <= 1:
        raise ValueError(f"need t in [0, 1], got {t!r}")
    if not sigma > 0:
        raise ValueError(f"need sigma > 0, got {sigma!r}")
    s = sigma + (1 - sigma) * t
    return s * (1 + x) / (s + x)


def pl_frame_distortion(q: Quadruple, pos, sigma):
    """One-step distortion of q under slope sigma left of ``pos`` and 1 right.

    ``pos`` is a break's lift anywhere in [z1, z4]; each gap's image is
    sigma times its part left of the break plus its part right of it.
    This is g_func at pos = z2, f_func with the break in [z1, z2] and
    f_func(eta, theta, 1/sigma) with it in [z3, z4], and it covers the
    middle gap as well.  Exact for PL maps, since the cross-ratio ignores
    a common scale.
    """
    if not q.z1 <= pos <= q.z4:
        raise BreakNotInStatedInterval(
            f"break {pos!r} lies outside the hull [{q.z1!r}, {q.z4!r}]"
        )
    imgs = []
    for u, w in zip(q, q[1:]):
        left = min(max(pos - u, 0.0), w - u)
        imgs.append(sigma * left + (w - u - left))
    a, b, c = imgs
    return (a * c) / ((a + b) * (b + c)) / cross_ratio(q)


class ClosedForm(NamedTuple):
    predicted: float
    residual_bound: float
    actual: float
    sigma: float


def single_break_closed_form(q: Quadruple, brk: BreakPoint, m: CircleMap) -> ClosedForm:
    """One-step distortion against its break-point closed form.

    The prediction is the PL frame at the break's lift: F(xi, z) at the
    jump ratio sigma with the break in [z1, z2], F(eta, theta) at
    1/sigma with it in [z3, z4].  A break in the middle gap is refused,
    as no closed form of the paper covers it.  The residual is certified
    against the calibrated multiple of the total curvature over the hull;
    zero for PL maps.
    """
    pos = lift_into(brk.location, q.z1)
    others = [b for b in m.breaks if b.location != brk.location]
    for other in others:
        opos = lift_into(other.location, q.z1)
        if q.z1 < opos < q.z4:
            raise BreakNotInStatedInterval(
                f"hull also contains the break at {other.location!r}"
            )
    if q.z2 < pos < q.z3:
        raise BreakNotInStatedInterval(
            f"break {pos!r} lies in the middle gap [{q.z2!r}, {q.z3!r}]"
        )
    predicted = pl_frame_distortion(q, pos, brk.sigma)

    actual = distortion(q, m)
    k1 = calibrate_k1(m)
    bound = k1 * abs_d2f_integral(m, q.z1, q.z4)
    if abs(actual - predicted) > bound + 1e-12:
        raise InvariantFailure(
            f"closed-form residual {abs(actual - predicted):.3e} exceeds the "
            f"calibrated bound {bound:.3e}"
        )
    return ClosedForm(
        predicted=predicted,
        residual_bound=bound,
        actual=actual,
        sigma=brk.sigma,
    )


def _sample_quadruples(m: CircleMap, rng: random.Random, count: int, with_break: bool):
    """Random small-hull quadruples, with the break in a side gap or none."""
    out = []
    locs = [b.location for b in m.breaks]
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        h = 10.0 ** rng.uniform(-5, -1.4)
        parts = [rng.uniform(0.15, 1.0) for _ in range(3)]
        s = sum(parts)
        alpha, beta, gamma = (p * h / s for p in parts)
        if with_break:
            brk = rng.choice(m.breaks)
            if rng.random() < 0.5:
                t = rng.uniform(0.0, 1.0)  # z-coordinate in [z1, z2]
                z2 = brk.location + t * alpha
                z1 = z2 - alpha
            else:
                t = rng.uniform(0.0, 1.0)  # theta-coordinate in [z3, z4]
                z1 = brk.location - t * gamma - beta - alpha
            qd = Quadruple.from_gaps(z1, alpha, beta, gamma)
            inside = [
                x
                for x in locs
                if x != brk.location and qd.z1 < lift_into(x, qd.z1) < qd.z4
            ]
            if inside:
                continue
            out.append((qd, brk))
        else:
            z1 = rng.random()
            qd = Quadruple.from_gaps(z1, alpha, beta, gamma)
            if min_break_distance(m, qd.z1) < 2 * h or any(
                qd.z1 <= lift_into(x, qd.z1) <= qd.z4 for x in locs
            ):
                continue
            out.append((qd, None))
    return out


@lru_cache(maxsize=None)
def calibrate_k1(m: CircleMap) -> float:
    """Calibrated closed-form residual constant for one map.

    Max of residual / curvature-integral over a deterministic quadruple
    sample, doubled for safety.  Curvature-free families get 0: their
    residual is identically zero.
    """
    if not m.breaks or all(c == 0 for c in m.seg_curv):
        return 0.0
    rng = random.Random(0x5EED)
    worst = 0.0
    for qd, brk in _sample_quadruples(m, rng, 1000, with_break=True):
        predicted = pl_frame_distortion(qd, lift_into(brk.location, qd.z1), brk.sigma)
        integral = abs_d2f_integral(m, qd.z1, qd.z4)
        if integral <= 0:
            continue
        ratio = abs(distortion(qd, m) - predicted) / integral
        worst = max(worst, ratio)
    return 2.0 * worst


@lru_cache(maxsize=None)
def calibrate_c1(m: CircleMap) -> float:
    """Calibrated break-free distortion constant for one map.

    On break-free hulls of these families the curvature is constant, so
    the oscillation term drops and |Dist - 1| is compared against the
    squared curvature integral alone.
    """
    if all(c == 0 for c in m.seg_curv):
        return 0.0
    rng = random.Random(0xACC0)
    worst = 0.0
    for qd, _ in _sample_quadruples(m, rng, 1000, with_break=False):
        integral = abs_d2f_integral(m, qd.z1, qd.z4)
        if integral <= 0:
            continue
        ratio = abs(distortion(qd, m) - 1.0) / integral**2
        worst = max(worst, ratio)
    return 2.0 * worst


class SmoothBound(NamedTuple):
    bound: float
    integral: float
    constant: float


def smooth_distortion_bound(m: CircleMap, q: Quadruple) -> SmoothBound:
    """Bound Ĉ (∫|D²f|)² on |Dist - 1| over the hull of q.

    The hull must contain no break.  It then lies in one segment, where
    D²f is constant, so the oscillation term hull·osc(D²f) of the general
    bound is 0 and the squared curvature integral is all that remains.
    """
    integral = abs_d2f_integral(m, q.z1, q.z4)
    c1 = calibrate_c1(m)
    return SmoothBound(bound=c1 * integral**2, integral=integral, constant=c1)
