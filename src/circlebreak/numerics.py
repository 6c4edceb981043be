"""Shared arithmetic helpers for circle maps.

All numerics are binary64 floats: callers use ``math`` directly and
``MACHINE_EPS`` as the working precision.  The scalar helpers below sit
on the orbit loops, so they stay branch-light and allocation-free.
The package needs nothing beyond the standard library.
"""

from __future__ import annotations

import sys
from functools import reduce
from math import floor
from operator import add

MACHINE_EPS = sys.float_info.epsilon

# A fractional part v within 2 eps below 1 is the origin of the next turn:
# 1 - v <= 2 eps.  For v in [0, 1] that is v >= CLAMP_FROM, as 1 - v is
# exact from v = 1/2 on, and one comparison is cheaper than a subtraction
# and a comparison.
CLAMP_FROM = 1.0 - 2 * MACHINE_EPS

# Hard ceiling on map evaluations in a single orbit-producing call;
# ``maps.check_orbit_length`` is its one reader on the orbit paths.
ORBIT_CAP = 2_000_000

# Orbit points closer to a break than this (in units of MACHINE_EPS)
# count as collisions for derivative sampling purposes.
BREAK_CLEARANCE_EPS = 1e3


def to_circle(x):
    """Reduce a lift coordinate to [0, 1).

    Values that land within two epsilons below 1 are clamped to 0 so that a
    rounded-up fractional part never masquerades as a point just left of the
    origin.  ``maps.advance`` and ``maps.retreat`` apply the same rule and
    bump the winding when the clamp fires.
    """
    v = x - floor(x)
    if v >= CLAMP_FROM:
        return 0.0
    return v


def ordered_sum(values) -> float:
    """Sum of floats added left to right, rounded after every addition.

    Up to Python 3.11 the builtin ``sum`` adds floats this way; from 3.12
    it compensates the rounding, which moves the last bits of some sums
    and so the bytes of the outputs written from them.  Every float sum
    in the package goes through here, so each Python gives the same bytes.
    """
    return reduce(add, values, 0.0)


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
