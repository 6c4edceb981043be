"""Circle homeomorphisms with at most two break points.

A map is handled through a degree-one lift f: R -> R, f(x+1) = f(x) + 1,
strictly increasing, with one-sided derivatives everywhere.  Three families
are provided:

* ``make_rotation``       rigid rotation, f(x) = x + t, as two slope-1
                          segments split at 1/2;
* ``make_pl_two_break``   piecewise-linear lift, two slopes meeting at break
                          points a and c, so the jump ratios satisfy
                          sigma(a) * sigma(c) = 1;
* ``make_pq_two_break``   piecewise-quadratic lift whose derivative is
                          piecewise linear, realising any prescribed jump
                          ratios sigma_a, sigma_c > 0, including
                          sigma_a * sigma_c != 1.

All three share a two-segment representation: the derivative profile is
affine on each segment (for two breaks, the arcs (a, c) and (c, a)), so the
lift is a quadratic polynomial per segment and inverts in closed form.  The
profile is normalised so the derivative integrates to exactly 1 over a
period, which is what makes the lift degree one.  The translation parameter
t only shifts values; break locations and derivatives do not depend on it.
"""

from __future__ import annotations

import functools
from math import exp, floor, log, sqrt
from typing import NamedTuple

from .errors import (
    BreakCollision,
    InfeasibleDerivatives,
    InvalidGeometry,
    NotClassP,
    PrecisionBudgetExceeded,
)
from .numerics import (
    BREAK_CLEARANCE_EPS,
    CLAMP_FROM,
    DEFAULT_ORBIT_CAP,
    MACHINE_EPS,
    arc_length,
    to_circle,
)

class _BreakPointFields(NamedTuple):
    location: float  # circle coordinate in [0, 1)
    d_minus: float
    d_plus: float


class BreakPoint(_BreakPointFields):
    """A point where the one-sided derivatives of the lift differ.

    ``sigma`` is the jump ratio Df_-(x) / Df_+(x).
    """

    __slots__ = ()

    def __new__(cls, location, d_minus, d_plus):
        if not (0 <= location < 1):
            raise InvalidGeometry(f"break location {location!r} not in [0, 1)")
        if not (d_minus > 0 and d_plus > 0):  # refuses nan too
            raise InvalidGeometry("one-sided derivatives must be positive")
        if d_minus == d_plus:
            raise InvalidGeometry("equal one-sided derivatives: not a break")
        return super().__new__(cls, location, d_minus, d_plus)

    @property
    def sigma(self):
        return self.d_minus / self.d_plus


class MapStats(NamedTuple):
    """Summary invariants of a class-P homeomorphism.

    v             total variation of log Df over the circle
    lam           the contraction base (1 + e^-v)^(-1/2) controlling how fast
                  dynamical-partition elements shrink
    sigma_product product of the jump ratios over all breaks
    """

    v: float
    lam: float
    sigma_product: float


class CircleMap(NamedTuple):
    """Immutable two-segment piecewise-polynomial lift.

    Segment s covers [seg_pos[s], seg_pos[s+1]] of the fundamental domain,
    which starts at the smaller break location; a rotation's two segments
    split [0, 1) at 1/2 and have slope 1, with no break between them.
    ``seg_val`` holds base lift values (translation excluded) at the three
    boundary positions; ``seg_d0``/``seg_d1`` are the derivative at segment
    start/end and ``seg_curv`` the constant second derivative on the
    segment.
    """

    translation: float
    breaks: tuple
    seg_pos: tuple
    seg_val: tuple
    seg_d0: tuple
    seg_d1: tuple
    seg_curv: tuple

    def with_translation(self, t) -> "CircleMap":
        return self._replace(translation=t)


def make_rotation(translation) -> CircleMap:
    # a second segment of length 0 would start at 1.0, which is no circle point
    return CircleMap(
        translation=translation,
        breaks=(),
        seg_pos=(0.0, 0.5, 1.0),
        seg_val=(0.0, 0.5, 1.0),
        seg_d0=(1.0, 1.0),
        seg_d1=(1.0, 1.0),
        seg_curv=(0.0, 0.0),
    )


def _build_two_segment(a, c, da_plus, dc_minus, dc_plus, da_minus, translation):
    """Assemble a two-break map from its one-sided derivative values.

    Segment data lives on [p0, p0+1) with p0 = min(a, c).  The base lift is
    anchored at f(a) = a; the translation family then shifts values only.
    """
    for d in (da_plus, dc_minus, dc_plus, da_minus):
        if d <= 0:
            raise InfeasibleDerivatives(
                "closure forced a non-positive one-sided derivative"
            )
    len_ac = arc_length(a, c)
    len_ca = 1 - len_ac
    # Derivative is affine on each arc: from Df_+(start) to Df_-(end).
    if a < c:
        p0, p1 = a, c
        segs = ((da_plus, dc_minus, len_ac), (dc_plus, da_minus, len_ca))
        anchor_seg = 0  # value anchored at p0 == a
    else:
        p0, p1 = c, a
        segs = ((dc_plus, da_minus, len_ca), (da_plus, dc_minus, len_ac))
        anchor_seg = 1  # value anchored at p1 == a
    incr = tuple(L * (d0 + d1) / 2 for d0, d1, L in ((s[0], s[1], s[2]) for s in segs))
    closure = incr[0] + incr[1]
    if abs(closure - 1) > 64 * MACHINE_EPS:
        raise InfeasibleDerivatives(f"derivative profile integrates to {closure!r}")
    if anchor_seg == 0:
        v0 = p0
        v1 = v0 + incr[0]
    else:
        v1 = p1
        v0 = v1 - incr[0]
    curv = tuple((d1 - d0) / L for d0, d1, L in segs)
    brk_a = BreakPoint(location=a, d_minus=da_minus, d_plus=da_plus)
    brk_c = BreakPoint(location=c, d_minus=dc_minus, d_plus=dc_plus)
    return CircleMap(
        translation=translation,
        breaks=(brk_a, brk_c),
        seg_pos=(p0, p1, p0 + 1),
        seg_val=(v0, v1, v0 + 1),
        seg_d0=(segs[0][0], segs[1][0]),
        seg_d1=(segs[0][1], segs[1][1]),
        seg_curv=curv,
    )


def make_pl_two_break(a, c, slope_ratio, translation=0.0) -> CircleMap:
    """Piecewise-linear lift with slope s1 on arc (a, c) and s2 on (c, a),
    s1/s2 = slope_ratio.  The jump ratios multiply to 1 by construction."""
    a = to_circle(a)
    c = to_circle(c)
    len_ac = arc_length(a, c)  # 0 also when c is a float step below a
    if len_ac == 0.0:
        raise InvalidGeometry("break points coincide")
    if not slope_ratio > 0:  # refuses nan too
        raise InvalidGeometry("slope ratio must be positive")
    if slope_ratio == 1:
        raise InvalidGeometry("slope ratio 1 gives no break")
    len_ca = 1 - len_ac
    s2 = 1 / (slope_ratio * len_ac + len_ca)
    s1 = slope_ratio * s2
    # At a the left arc is (c, a) with slope s2, the right arc (a, c) with s1.
    return _build_two_segment(
        a,
        c,
        da_plus=s1,
        dc_minus=s1,
        dc_plus=s2,
        da_minus=s2,
        translation=translation,
    )


def make_pq_two_break(a, c, sigma_a, sigma_c, translation=0.0) -> CircleMap:
    """Piecewise-quadratic lift with prescribed jump ratios at a and c.

    The derivative runs affinely from Df_+(a) to Df_-(c) on arc (a, c) and
    from Df_+(c) to Df_-(a) on arc (c, a).  With the symmetric profile choice
    Df_+(a) = Df_+(c), the two jump conditions leave one overall scale, fixed
    by the closure condition that Df integrates to 1 over a period.
    """
    a = to_circle(a)
    c = to_circle(c)
    len_ac = arc_length(a, c)  # 0 also when c is a float step below a
    if len_ac == 0.0:
        raise InvalidGeometry("break points coincide")
    if not (sigma_a > 0 and sigma_c > 0):  # refuses nan too
        raise InvalidGeometry("jump ratios must be positive")
    if sigma_a == 1 and sigma_c == 1:
        raise InvalidGeometry("both jump ratios are 1: no break points")
    if sigma_a == 1 or sigma_c == 1:
        raise InvalidGeometry("a two-break map needs both jump ratios != 1")
    len_ca = 1 - len_ac
    area = len_ac * (1 + sigma_c) / 2 + len_ca * (1 + sigma_a) / 2
    s = 1 / area
    return _build_two_segment(
        a,
        c,
        da_plus=s,
        dc_minus=sigma_c * s,
        dc_plus=s,
        da_minus=sigma_a * s,
        translation=translation,
    )


def evaluate(m: CircleMap, x):
    """Lift value f(x) for any real lift coordinate x."""
    # one unpack of the record in place of a field read per use
    t, _, pos, val, d0, _, curv = m
    p0 = pos[0]
    k = floor(x - p0)
    u = x - k
    # Guard against boundary rounding in the reduction.
    if u < p0:
        u += 1
        k -= 1
    elif u >= p0 + 1:
        u -= 1
        k += 1
    s = 0 if u < pos[1] else 1
    du = u - pos[s]
    y = val[s] + du * (d0[s] + 0.5 * curv[s] * du)
    return y + k + t


def check_orbit_length(n: int, cap: int):
    """Refuse an orbit of n map steps when n exceeds ``cap``."""
    if n > cap:
        raise PrecisionBudgetExceeded(f"orbit length {n} exceeds cap {cap}")


def _check_orbit_start(x, t, n: int):
    """Refuse a start off the circle, and for n > 0 a translation that is
    not finite: floor raises for it where ``y % 1.0`` would go on with nan."""
    if not 0.0 <= x < 1.0:
        raise ValueError(f"orbit start {x!r} is not a circle point in [0, 1)")
    if n > 0 and t - t != 0.0:
        floor(t)


def advance(m: CircleMap, x, w: int, n: int, pts=None):
    """Run n forward steps from the pair (x, w); return the last pair.

    x is a circle point in [0, 1) and w an integer winding: the pair stands
    for the lift value x + w, so f^n(x0) is reassembled exactly as
    ``x_n + w_n`` without the lift coordinate growing (and losing ulps).
    Each point is ``to_circle(evaluate(m, x))`` bit for bit, and when that
    clamps up to 0 the winding gains one.  When given, ``pts`` receives
    every new point in order.

    One loop serves every map, a rotation included: it repeats
    ``evaluate`` inline with the segment constants in locals, and every
    operand is a float, which keeps CPython on its float-only opcodes: x is
    placed in [p0, p0 + 1) by comparison with p0, ``y % 1.0`` is
    ``y - floor(y)`` for finite y, and ``y - (y % 1.0)`` is floor(y)
    exactly, so the winding is summed as a float.  That sum is exact while
    it stays below 2**53 turns; past that it rounds.
    """
    t, _, pos, val, d0, _, curv = m
    _check_orbit_start(x, t, n)
    top = CLAMP_FROM
    put_x = None if pts is None else pts.append
    turns = 0.0
    p0, p1 = pos[0], pos[1]
    p0_next = p0 + 1
    v0, v1 = val[0], val[1]
    a0, a1 = d0
    # evaluate's 0.5 * curv * du groups as (0.5 * curv) * du: hoisting the
    # first product leaves every bit unchanged.
    h0, h1 = 0.5 * curv[0], 0.5 * curv[1]
    for _ in range(n):
        # x lies in [0, 1): left of p0 it sits one turn back, and from p0
        # on it needs no fix-up, as x < 1 <= p0 + 1
        if x < p0:
            u = x + 1.0
            j = -1.0
            if u >= p0_next:
                u -= 1.0
                j = 0.0
        else:
            u = x
            j = 0.0
        if u < p1:
            du = u - p0
            y = v0 + du * (a0 + h0 * du) + j + t
        else:
            du = u - p1
            y = v1 + du * (a1 + h1 * du) + j + t
        x = y % 1.0
        turns += y - x
        if x >= top:
            x = 0.0
            turns += 1.0
        if put_x is not None:
            put_x(x)
    return x, w + int(turns)


def retreat(m: CircleMap, x, w: int, n: int, pts=None):
    """``advance`` run backward: n steps from the pair (x, w), so that
    ``x_n + w_n`` is f^{-n}(x + w).

    Each step solves f(y) = x exactly and reduces y by ``advance``'s
    clamp-and-winding rule, so points and windings are bit-identical to
    ``to_circle`` and ``floor`` of that solve.  As ``evaluate`` does in
    position space, the solve puts u = x - t - k in [v0, v0 + 1), for k the
    floor of x - t - v0, and takes the segment's linear or stable quadratic
    root.  Over the circle x - t spans at most one turn, so that floor is
    one of the float turn offsets k0, k0 + 1 and k0 + 2, and comparisons
    pick it.  A curvature-free segment, as both of a rotation's are, takes
    the linear root, which for slope 1 is the float x - t.  As in
    ``advance``, every operand of the loop is a float.
    """
    t, _, pos, val, d0, _, curv = m
    _check_orbit_start(x, t, n)
    top = CLAMP_FROM
    put_x = None if pts is None else pts.append
    p0, p1 = pos[0], pos[1]
    v0, v1 = val[0], val[1]
    v0_next = v0 + 1.0
    a0, a1 = d0
    # the exact solve's d0 * d0 + 2 * curv * dv groups as
    # (d0 * d0) + (2 * curv) * dv: hoisting both products keeps every bit
    sq0, sq1 = a0 * a0, a1 * a1
    c0, c1 = 2.0 * curv[0], 2.0 * curv[1]
    # x - t - v0 is least at x = 0, as rounding is monotone; z0 - z0 % 1.0
    # is its floor, as in advance
    z0 = 0.0 - t - v0
    k0 = z0 - z0 % 1.0
    k1, k2 = k0 + 1.0, k0 + 2.0
    turns = 0.0
    for _ in range(n):
        yb = x - t
        z = yb - v0
        if z < k1:
            k = k0
        elif z < k2:
            k = k1
        else:
            k = k2
        # the rounding of z can leave u one ulp outside [v0, v0 + 1)
        u = yb - k
        if u < v0:
            u += 1.0
            k -= 1.0
        elif u >= v0_next:
            u -= 1.0
            k += 1.0
        # a discriminant is the squared derivative at the preimage, so it
        # is negative by rounding only
        if u < v1:
            dv = u - v0
            if c0 == 0.0:
                du = dv / a0
            else:
                disc = sq0 + c0 * dv
                du = 2.0 * dv / (a0 + sqrt(disc if disc > 0.0 else 0.0))
            y = p0 + du + k
        else:
            dv = u - v1
            if c1 == 0.0:
                du = dv / a1
            else:
                disc = sq1 + c1 * dv
                du = 2.0 * dv / (a1 + sqrt(disc if disc > 0.0 else 0.0))
            y = p1 + du + k
        x = y % 1.0
        turns += y - x
        if x >= top:
            x = 0.0
            turns += 1.0
        if put_x is not None:
            put_x(x)
    return x, w + int(turns)


def df_product(m: CircleMap, x0, steps: int, cap: int = DEFAULT_ORBIT_CAP):
    """Product of Df_+ along the first ``steps`` orbit points of x0.

    One pass, no orbit kept: each step gives the point ``advance`` gives,
    bit for bit, and multiplies in Df_+ = d0 + curv * du from the segment
    offset du it has just computed, which is Df_+ of the one-point
    reference ``_reference_one_sided_derivatives`` in tests/conftest.py bit
    for bit.  The product runs in orbit order, as a running product.  It
    places each circle point as ``advance``'s loop does, by comparison with
    p0, and like that loop it keeps every operand a float, so CPython stays
    on its float-only opcodes.

    The orbit is not nudged: a point that fails ``clears_breaks`` raises
    BreakCollision.  A point is tested, on its own, when its du lies
    within twice the clearance of a segment end, an ulp-level superset of
    the points that test rejects; so an orbit raises at its first point
    too close to a break, and only there.
    """
    check_orbit_length(steps - 1, cap)
    t, _, pos, val, d0, _, curv = m
    # floor raises for a translation that is not finite, where the loop's
    # y % 1.0 would go on with nan
    floor(t)
    p0, p1 = pos[0], pos[1]
    p0_next = p0 + 1
    v0, v1 = val[0], val[1]
    a0, a1 = d0
    c0, c1 = curv
    h0, h1 = 0.5 * c0, 0.5 * c1
    top = CLAMP_FROM
    near = 2 * BREAK_CLEARANCE_EPS * MACHINE_EPS
    end0, end1 = (p1 - p0) - near, (p0_next - p1) - near
    x = to_circle(x0)
    prod = 1.0
    for _ in range(steps):
        # x lies in [0, 1).  Left of p0 it sits one turn back, at
        # u = x + 1 >= 1 > p1 in segment 1.  From p0 on it sits in p0's
        # own turn, whose offset 0.0 is not added: adding it could only
        # turn a -0.0 lift value into +0.0, and y % 1.0 does that too.
        # Within an ulp left of the break p0, x + 1 rounds up to p0 + 1;
        # there du exceeds end1, and the exact test below raises.
        if x < p0:
            u = x + 1.0
            du = u - p1
            end = end1
            prod *= a1 + c1 * du
            y = v1 + du * (a1 + h1 * du) - 1.0 + t
        elif x < p1:
            du = x - p0
            end = end0
            prod *= a0 + c0 * du
            y = v0 + du * (a0 + h0 * du) + t
        else:
            du = x - p1
            end = end1
            prod *= a1 + c1 * du
            y = v1 + du * (a1 + h1 * du) + t
        if (du < near or du > end) and not clears_breaks(m, (x,)):
            raise BreakCollision(
                f"orbit of {x0!r} comes within "
                f"{BREAK_CLEARANCE_EPS * MACHINE_EPS:.1e} of a break at {x!r}"
            )
        x = y % 1.0
        if x >= top:
            x = 0.0
    return prod


def step_with_winding(m: CircleMap, x, w: int):
    """One forward step of ``advance``: the next (circle point, winding)."""
    return advance(m, x, w, 1)


def iterate(m: CircleMap, x0, n: int, cap: int = DEFAULT_ORBIT_CAP):
    """Forward orbit of circle points [x0, T x0, ..., T^n x0].

    The capped list form of ``advance``: ``cap`` bounds the number of map
    evaluations n; a longer orbit raises PrecisionBudgetExceeded.
    """
    check_orbit_length(n, cap)
    if n < 0:
        raise ValueError("n must be non-negative")
    pts = [to_circle(x0)]
    advance(m, pts[0], 0, n, pts)
    return pts


def clears_breaks(m: CircleMap, pts):
    """Whether every arc ``arc_length(loc, p)`` from a break loc to a point p
    lies strictly between the clearance, BREAK_CLEARANCE_EPS machine
    epsilons, and 1 minus the clearance."""
    clearance = BREAK_CLEARANCE_EPS * MACHINE_EPS
    far = 1 - clearance
    for b in m.breaks:
        loc = b.location
        for p in pts:
            # p and loc are circle points, so p - loc lies in (-1, 1) and
            # adding 1.0 below 0 is subtracting its floor.  to_circle would
            # also clamp arcs within 2 eps of 1 to 0; such arcs fail the
            # test either way, since clearance exceeds 2 eps.
            arc = p - loc
            if arc < 0.0:
                arc += 1.0
            if not clearance < arc < far:
                return False
    return True


@functools.lru_cache(maxsize=64)
def map_stats(m: CircleMap) -> MapStats:
    """Check the class-P contract and return the map's summary stats.

    The lift is quadratic on each segment with affine derivative, so its
    one-sided derivative values at the segment ends decide everything:
    their minimum is the bound c1 > 0 (and makes the lift strictly
    increasing), and v = Var(log Df) is the sum of the per-segment
    endpoint differences of log Df (Df is monotone there) and the jumps
    at the breaks.  Cached, since maps are immutable and hashable.
    """
    if min(m.seg_d0 + m.seg_d1) <= 0:
        raise NotClassP("one-sided derivative not bounded below by a positive c1")
    v = 0.0
    for b in m.breaks:
        v += abs(log(b.sigma))
    for s in range(2):
        v += abs(log(m.seg_d1[s]) - log(m.seg_d0[s]))
    lam = (1 + exp(-v)) ** -0.5
    sig = 1.0
    for b in m.breaks:
        sig *= b.sigma
    return MapStats(v=v, lam=lam, sigma_product=sig)


def _segment_walk(m: CircleMap, lo, hi):
    """Yield (segment id, x1, x2, segment start) covering the lift interval
    [lo, hi] piece by piece; hi - lo may cross several boundaries."""
    pos = m.seg_pos
    p0, p1 = pos[0], pos[1]
    cur = lo
    while cur < hi:
        j = floor(cur - p0)
        us = cur - j  # in [p0, p0+1)
        if us < p0:
            us += 1
            j -= 1
        elif us >= p0 + 1:
            us -= 1
            j += 1
        if us < p1:
            s = 0
            nxt = p1 + j
        else:
            s = 1
            nxt = p0 + 1 + j
        if nxt <= cur:
            # cur is a segment end that the reduction rounded back into the
            # segment it closes (1.2 - 1 < 0.2): the piece is the next one
            if s == 0:
                s = 1
                nxt = p0 + 1 + j
            else:
                s = 0
                j += 1
                nxt = p1 + j
        x2 = hi if hi < nxt else nxt
        yield s, cur, x2, pos[s] + j
        cur = x2


def gap_image(m: CircleMap, lo, hi):
    """f(hi) - f(lo) computed as a sum of positive per-segment increments.

    Exact per segment because the derivative is affine there; summing
    positive terms keeps the relative error at a few epsilons even when
    hi - lo is many orders of magnitude below 1.  Requires lo <= hi.
    """
    d0, curv = m.seg_d0, m.seg_curv
    total = 0.0
    for s, x1, x2, start in _segment_walk(m, lo, hi):
        mid = (x1 + x2) / 2 - start
        total += (x2 - x1) * (d0[s] + curv[s] * mid)
    return total


def abs_d2f_integral(m: CircleMap, lo, hi):
    """Integral of |D2 f| over the lift interval [lo, hi] (exact quadrature:
    the second derivative is constant per segment)."""
    curv = m.seg_curv
    total = 0.0
    for s, x1, x2, _ in _segment_walk(m, lo, hi):
        total += abs(curv[s]) * (x2 - x1)
    return total
