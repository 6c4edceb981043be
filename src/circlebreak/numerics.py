"""Shared arithmetic helpers for circle maps.

Everything downstream works with plain Python numbers so that the same code
runs on binary64 floats (the default) or on ``mpmath.mpf`` values when more
precision is needed.  The helpers below dispatch on the operand type; the
float path stays allocation-free and fast because orbit loops sit on it.
"""

from __future__ import annotations

import math
import sys

MACHINE_EPS = sys.float_info.epsilon

# Hard ceiling on map evaluations in a single orbit-producing call.
DEFAULT_ORBIT_CAP = 2_000_000

# Orbit points closer to a break than this (in units of the type's epsilon)
# count as collisions for derivative sampling purposes.
BREAK_CLEARANCE_EPS = 1e3


def floor(x):
    """Integer floor as a Python int, for floats and mpmath values alike."""
    if isinstance(x, (float, int)):
        return math.floor(x)
    import mpmath

    return int(mpmath.floor(x))


def sqrt(x):
    if isinstance(x, (float, int)):
        return math.sqrt(x)
    import mpmath

    return mpmath.sqrt(x)


def log(x):
    if isinstance(x, (float, int)):
        return math.log(x)
    import mpmath

    return mpmath.log(x)


def exp(x):
    if isinstance(x, (float, int)):
        return math.exp(x)
    import mpmath

    return mpmath.exp(x)


def eps_of(x) -> float:
    """Machine epsilon of the arithmetic that produced ``x``."""
    if isinstance(x, (float, int)):
        return MACHINE_EPS
    import mpmath

    return float(mpmath.mp.eps)


def to_circle(x):
    """Reduce a lift coordinate to [0, 1).

    Values that land within two epsilons below 1 are clamped to 0 so that a
    rounded-up fractional part never masquerades as a point just left of the
    origin.  Callers tracking winding numbers must bump the integer part when
    the clamp fires; see ``maps.step_with_winding``.
    """
    v = x - floor(x)
    if 1 - v <= 2 * eps_of(x):
        return v - v
    return v


def wraps_to_zero(x) -> bool:
    """True when ``to_circle`` would clamp the fractional part of ``x`` up."""
    v = x - floor(x)
    return 1 - v <= 2 * eps_of(x)


def arc_length(u, w):
    """Length of the counterclockwise arc from circle point u to w."""
    return to_circle(w - u)


def wrap_signed(d):
    """Reduce a circle displacement to the symmetric interval (-1/2, 1/2]."""
    v = to_circle(d)
    if v > 0.5:
        return v - 1
    return v


def in_arc(x, lo, hi) -> bool:
    """Whether circle point x lies on the closed ccw arc from lo to hi."""
    return arc_length(lo, x) <= arc_length(lo, hi)
