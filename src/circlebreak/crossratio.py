"""Cross-ratio distortion machinery for maps with break points.

Quadruples live in lift coordinates on a single chart (hull shorter
than one full turn).  Images are propagated gap by gap so that the
telescoping product over an orbit stays accurate even when the hull is
many orders of magnitude below 1.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import floor
from typing import NamedTuple

from .errors import (
    BreakNotInStatedInterval,
    DegenerateQuadruple,
    InvariantFailure,
    PrecisionBudgetExceeded,
)
from .maps import (
    BreakPoint,
    CircleMap,
    abs_d2f_integral,
    advance,
    evaluate,
    gap_image,
)
from .numerics import CLAMP_FROM, MACHINE_EPS, arc_length, to_circle

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
        floor = DEGENERACY_EPS * MACHINE_EPS * max(z4 - z1, MACHINE_EPS)
        if not (z2 - z1 > floor and z3 - z2 > floor and z4 - z3 > floor):
            for u, w in ((z1, z2), (z2, z3), (z3, z4)):
                if not w - u > floor:
                    raise DegenerateQuadruple(
                        f"gap {w - u!r} between {u!r} and {w!r} is below the "
                        "degeneracy floor"
                    )
        return tuple.__new__(cls, (z1, z2, z3, z4))

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


def distortion(q: Quadruple, m: CircleMap):
    """Cr(f z1..f z4) / Cr(z1..z4), the one-step distortion of q under m."""
    return cross_ratio(image_quadruple(q, m)) / cross_ratio(q)


class ChainResult(NamedTuple):
    total: float
    factors: tuple
    quadruples: tuple
    direct: float


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


# Unit roundoff of binary64: fl(x op y) = (x op y)(1 + d) with |d| <= U.
U = MACHINE_EPS / 2


@lru_cache(maxsize=None)
def _slope_range(m: CircleMap):
    """(min Df, max Df, max |D2f|) over the circle.

    Df is affine on each segment, so its extremes sit at segment ends.
    """
    ends = m.seg_d0 + m.seg_d1
    return min(ends), max(ends), max(abs(c) for c in m.seg_curv)


def _quotient_rounding(gap, abs_err, rel_err):
    """1.25 t, with t = 4 (rel_err + abs_err / gap) + 15 U; see distortion_rounding."""
    t = 4.0 * (rel_err + abs_err / gap) + 15.0 * U
    if t > 1.0 / 64:
        raise PrecisionBudgetExceeded(
            f"rounding of the cross-ratio ({t:.3e} relative) swamps a gap of {gap!r}"
        )
    return 1.25 * t


def distortion_rounding(q: Quadruple, img: Quadruple, m: CircleMap) -> float:
    """Relative rounding bound on d = cross_ratio(img) / cross_ratio(q).

    ``img`` is ``image_quadruple(q, m)``.  The bound holds for |d - D| / d,
    where D is the exact distortion of the float points z1..z4 under the
    exact map of m's segment table.  Write u = U for the unit roundoff,
    S = 1 + max(|z1|, |z4|), Df in [lo, hi] and |D2f| <= k on the circle.

    Image gaps.  chain_points builds P' = fl(P + g) from the anchor P, so
    the difference P' - P is g plus one rounding of at most u|P'|: the
    loss is about eps over the gap, and it does not accumulate along the
    running sum.  On top of that, cross_ratio's subtraction P' - P rounds
    once (u), and gap_image contributes per piece a rounded length (u), a
    midpoint off by at most 2uS, which moves Df by k(2S + 1)u with its own
    product, a rounded Df sum (u) and a rounded product (u), plus at most
    2u for summing at most three positive pieces.  Where a break lies in
    the hull or within rounding of it, gap_image may split a gap at a
    segment end rounded by at most 2uS, and Df jumps there by at most
    hi - lo.  So every image gap g' is exact within

        r = (6 + k(2S + 1)/lo) u + (u max|P| + [split] 2uS(hi - lo)) / g'_min

    relative, and each of q's gaps within u (one subtraction).

    Quotient.  Cr = ac / ((a+b)(b+c)) moves by at most 4r relative when
    each of its gaps moves by at most r, since a+b and b+c are weighted
    means of their gaps' errors.  Each cross_ratio rounds five times and
    the quotient once, so to first order |d/D - 1| <= t = 4r + 4u + 11u.
    For t <= 1/64 the higher-order terms stay below 0.05t and D <= 1.02d,
    so |d - D| <= 1.25t d; this returns 1.25t, and past t = 1/64 it
    raises PrecisionBudgetExceeded.  Since 1.25t >= 18u, scaling a bound's
    curvature term by 1 + 1.25t also covers the rounding of that term
    (at most 8u), of the residual and of their sum.
    """
    lo, hi, k = _slope_range(m)
    z1, _, _, z4 = q
    p0, p1, p2, p3 = img
    # max |z| and max |P| of increasing points
    s = 1.0 + max(-z1, z4)
    abs_err = U * max(-p0, p3)
    # a break's offset past z1 is rounded by at most 2uS; 16uS covers that
    # and a segment end rounded by 2uS
    margin = 16.0 * U * s
    for b in m.breaks:
        off = (b.location - z1) % 1.0
        if off <= z4 - z1 + margin or off >= 1.0 - margin:
            abs_err += 2.0 * U * s * (hi - lo)
            break
    gap = min(p1 - p0, p2 - p1, p3 - p2)
    return _quotient_rounding(gap, abs_err, U * (6.0 + k * (2.0 * s + 1.0) / lo))


def _frame_rounding(q: Quadruple, sigma) -> float:
    """Relative rounding bound on pl_frame_distortion(q, pos, sigma).

    The frame's gaps sigma*left + (g - left), with left = clamp(pos - z, 0, g),
    are the image gaps of distortion_rounding's quotient.  lift_into puts
    pos within (S + 11)u of the break's lift: two to_circle calls of at
    most 5u each, counting their clamp to 0 within 2 eps of 1, one
    rounding below 1 and one of size S.  pos - z rounds within u more, so
    each frame gap is off by at most 13uS|sigma - 1| absolute plus
    3(sigma + 1)u/min(sigma, 1) relative, and frame gaps are at least
    min(sigma, 1) times q's smallest gap.
    """
    s = 1.0 + max(-q.z1, q.z4)
    low = min(sigma, 1.0)
    return _quotient_rounding(
        low * min(q.gaps), 13.0 * U * s * abs(sigma - 1.0), 3.0 * U * (sigma + 1.0) / low
    )


class ClosedForm(NamedTuple):
    """``residual_bound`` = ``curvature`` + ``rounding``: K1 times the
    curvature integral over the hull, and the rounding of both quotients."""

    predicted: float
    residual_bound: float
    actual: float
    sigma: float
    curvature: float
    rounding: float


def single_break_closed_form(q: Quadruple, brk: BreakPoint, m: CircleMap) -> ClosedForm:
    """One-step distortion against its break-point closed form.

    The prediction is the PL frame at the break's lift: F(xi, z) at the
    jump ratio sigma with the break in [z1, z2], F(eta, theta) at
    1/sigma with it in [z3, z4].  A break in the middle gap is refused,
    as no closed form of the paper covers it.  The residual is bounded
    by the calibrated multiple of the total curvature over the hull,
    zero for PL maps, plus the rounding of the distortion and of the
    prediction; distortion_rows checks it.
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
    img = image_quadruple(q, m)
    actual = cross_ratio(img) / cross_ratio(q)
    curvature = calibrate_k1(m) * abs_d2f_integral(m, q.z1, q.z4)
    rounding = (
        distortion_rounding(q, img, m) * (actual + curvature)
        + _frame_rounding(q, brk.sigma) * predicted
    )
    return ClosedForm(
        predicted=predicted,
        residual_bound=curvature + rounding,
        actual=actual,
        sigma=brk.sigma,
        curvature=curvature,
        rounding=rounding,
    )


def _sample_quadruples(m: CircleMap, rng: random.Random, count: int):
    """Random small-hull quadruples with one break in a side gap."""
    out = []
    locs = [b.location for b in m.breaks]
    attempts = 0
    while len(out) < count and attempts < 50 * count:
        attempts += 1
        h = 10.0 ** rng.uniform(-5, -1.4)
        parts = [rng.uniform(0.15, 1.0) for _ in range(3)]
        s = sum(parts)
        alpha, beta, gamma = (p * h / s for p in parts)
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
    for qd, brk in _sample_quadruples(m, rng, 1000):
        predicted = pl_frame_distortion(qd, lift_into(brk.location, qd.z1), brk.sigma)
        integral = abs_d2f_integral(m, qd.z1, qd.z4)
        if integral <= 0:
            continue
        ratio = abs(distortion(qd, m) - predicted) / integral
        worst = max(worst, ratio)
    return 2.0 * worst


@lru_cache(maxsize=None)
def calibrate_c1(m: CircleMap) -> float:
    """C1 = 1 / (4 min Df^2): |Dist - 1| <= C1 (∫|D2f|)^2 on break-free hulls.

    A break-free hull [z1, z4] of length h lies in one segment, where Df
    is affine with slope k = D2f.  Each gap's image is then the gap times
    Df at its midpoint.  With m_a, m_c the midpoints of the outer gaps and
    m_ab, m_bc those of [z1, z3] and [z2, z4], m_a + m_c = m_ab + m_bc
    and m_a m_c - m_ab m_bc = -beta h / 4, which gives exactly

        Dist - 1 = -k^2 beta h / (4 Df(m_ab) Df(m_bc)).

    As beta < h and ∫|D2f| = |k| h, |Dist - 1| <= (|k| h)^2 / (4 min Df^2).
    Curvature-free maps get 0.
    """
    if not any(m.seg_curv):
        return 0.0
    return 1.0 / (4.0 * _slope_range(m)[0] ** 2)


class SmoothBound(NamedTuple):
    """``bound`` = ``curvature`` + ``rounding``: C1 times the squared
    curvature integral, and the rounding of the distortion ``actual``."""

    bound: float
    integral: float
    constant: float
    curvature: float
    rounding: float
    actual: float


def smooth_distortion_bound(m: CircleMap, q: Quadruple) -> SmoothBound:
    """Bound C1 (∫|D²f|)² plus rounding on |Dist - 1| over the hull of q.

    The hull must contain no break.  It then lies in one segment, where
    D²f is constant, so the oscillation term hull·osc(D²f) of the general
    bound is 0 and the squared curvature integral is all that remains;
    calibrate_c1 gives its constant in closed form.
    """
    img = image_quadruple(q, m)
    actual = cross_ratio(img) / cross_ratio(q)
    integral = abs_d2f_integral(m, q.z1, q.z4)
    c1 = calibrate_c1(m)
    curvature = c1 * integral**2
    rounding = distortion_rounding(q, img, m) * (actual + curvature)
    return SmoothBound(
        bound=curvature + rounding,
        integral=integral,
        constant=c1,
        curvature=curvature,
        rounding=rounding,
        actual=actual,
    )


class DistortionRow(NamedTuple):
    """One quadruple's cross-ratio, distortion and checked bound.

    ``predicted``, ``residual`` and ``bound`` are None where no bound
    applies: two breaks in the hull, or one in the middle gap.
    ``closed_form`` tells a one-break row from a break-free one.
    """

    cr: float
    dist: float
    predicted: float | None = None
    residual: float | None = None
    bound: float | None = None
    closed_form: bool = False


def _general_row(q: Quadruple, m: CircleMap) -> DistortionRow:
    """One row of distortion_rows by way of the bound records, for any hull.

    A break-free hull is held to smooth_distortion_bound, a hull with one
    break in a side gap to single_break_closed_form; a residual past its
    bound raises InvariantFailure.  Each path computes q's image once.
    """
    cr = cross_ratio(q)
    inside = [b for b in m.breaks if q.z1 < lift_into(b.location, q.z1) < q.z4]
    if not inside:
        sb = smooth_distortion_bound(m, q)
        predicted, actual, bound = 1.0, sb.actual, sb.bound
    else:
        try:
            cf = single_break_closed_form(q, inside[0], m)
        except BreakNotInStatedInterval:
            # two breaks in the hull, or one in the middle gap
            return DistortionRow(cr, distortion(q, m))
        predicted, actual, bound = cf.predicted, cf.actual, cf.residual_bound
    residual = abs(actual - predicted)
    if residual > bound:
        what = "closed-form" if inside else "break-free distortion"
        raise InvariantFailure(f"{what} residual {residual:.3e} exceeds its bound {bound:.3e}")
    return DistortionRow(cr, actual, predicted, residual, bound, bool(inside))


def distortion_rows(quads, m: CircleMap) -> list:
    """Dist(q; f) with the bound that applies to q's hull, checked, for
    each quadruple q of ``quads``, as one list.

    This is the one procedure that decides and checks rows.  It reads the
    segment table, C1, the slope range and the break locations once.  A
    break-free hull that gap_image's walk keeps in one segment piece is
    computed inline, operation for operation as smooth_distortion_bound
    computes it: evaluate, the three gap_image increments, the image's
    Quadruple check, abs_d2f_integral and distortion_rounding, the way
    maps.advance repeats evaluate.  Its row is bit-identical to
    _general_row's.  Every other row goes through _general_row: a break in
    the hull, a walk that starts on a rounded segment end or leaves the
    piece, and any row that would raise, which then raises there.  A
    rotation takes the same two paths on its two slope-1 segments.
    """
    fl = floor
    t = m.translation
    p0, p1 = m.seg_pos[0], m.seg_pos[1]
    p0_next = p0 + 1
    v0, v1 = m.seg_val[0], m.seg_val[1]
    a0, a1 = m.seg_d0
    c0, c1 = m.seg_curv
    # evaluate's 0.5 * curv * du groups as (0.5 * curv) * du
    h0, h1 = 0.5 * c0, 0.5 * c1
    locs = [b.location for b in m.breaks]
    lo, hi, kmax = _slope_range(m)
    c1_const = calibrate_c1(m)
    # distortion_rounding's constant products, grouped as it groups them
    u2, u15, u16, spread = 2.0 * U, 15.0 * U, 16.0 * U, hi - lo
    floor_eps = DEGENERACY_EPS * MACHINE_EPS

    def piece(x, y):
        """gap_image(m, x, y) when its walk is one piece, else None.

        A walk whose start the reduction rounded back below its segment's
        end (nxt <= x < y) corrects the piece; it is left to gap_image.
        """
        j = fl(x - p0)
        u = x - j
        if u < p0:
            u += 1
            j -= 1
        elif u >= p0_next:
            u -= 1
            j += 1
        if u < p1:
            nxt = p1 + j
            if y > nxt:
                return None
            return (y - x) * (a0 + c0 * ((x + y) / 2 - (p0 + j)))
        nxt = p0_next + j
        if y > nxt:
            return None
        return (y - x) * (a1 + c1 * ((x + y) / 2 - (p1 + j)))

    def fast_row(q):
        z1, z2, z3, z4 = q
        a = z2 - z1
        b = z3 - z2
        c = z4 - z3
        cr = (a * c) / ((a + b) * (b + c))
        # lift_into(location, z1) must leave the open hull for each break
        v = z1 - fl(z1)
        if v >= CLAMP_FROM:
            v = 0.0
        for loc in locs:
            w = loc - v
            w -= fl(w)
            if w >= CLAMP_FROM:
                w = 0.0
            if z1 < z1 + w < z4:
                return None
        # evaluate(m, z1) reduced by to_circle; the same reduction starts
        # the walks over [z1, z2] and over the hull [z1, z4]
        j = fl(z1 - p0)
        u = z1 - j
        if u < p0:
            u += 1
            j -= 1
        elif u >= p0_next:
            u -= 1
            j += 1
        if u < p1:
            du = u - p0
            y = v0 + du * (a0 + h0 * du) + j + t
            nxt, start, d0, curv = p1 + j, p0 + j, a0, c0
        else:
            du = u - p1
            y = v1 + du * (a1 + h1 * du) + j + t
            nxt, start, d0, curv = p0_next + j, p1 + j, a1, c1
        # one piece holds the hull (so it is shorter than one turn)
        if z4 > nxt:
            return None
        g2 = piece(z2, z3)
        g3 = piece(z3, z4)
        if g2 is None or g3 is None:
            return None
        # chain_points' image: the anchor and its running gap sums
        P0 = y - fl(y)
        if P0 >= CLAMP_FROM:
            P0 = 0.0
        P1 = P0 + a * (d0 + curv * ((z1 + z2) / 2 - start))
        P2 = P1 + g2
        P3 = P2 + g3
        h = P3 - P0
        if not h < 1:
            return None
        A = P1 - P0
        B = P2 - P1
        C = P3 - P2
        gfloor = floor_eps * max(h, MACHINE_EPS)
        if not (A > gfloor and B > gfloor and C > gfloor):
            return None
        actual = (A * C) / ((A + B) * (B + C)) / cr
        integral = abs(curv) * (z4 - z1)
        curvature = c1_const * integral**2
        # distortion_rounding(q, img, m)
        s = 1.0 + max(-z1, z4)
        abs_err = U * max(-P0, P3)
        margin = u16 * s
        for loc in locs:
            off = (loc - z1) % 1.0
            if off <= z4 - z1 + margin or off >= 1.0 - margin:
                abs_err += u2 * s * spread
                break
        gap = min(A, B, C)
        rel_err = U * (6.0 + kmax * (2.0 * s + 1.0) / lo)
        tq = 4.0 * (rel_err + abs_err / gap) + u15
        if tq > 1.0 / 64:
            return None
        bound = curvature + 1.25 * tq * (actual + curvature)
        residual = abs(actual - 1.0)
        if residual > bound:
            return None
        return DistortionRow(cr, actual, 1.0, residual, bound, False)

    return [fast_row(q) or _general_row(q, m) for q in quads]

