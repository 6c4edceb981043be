"""Numerics for circle homeomorphisms with break points.

Builds the standard objects of rotation theory (continued fractions,
dynamical partitions, invariant-measure values along orbits) for
piecewise-smooth circle maps with one or two derivative jumps, and runs
the cross-ratio distortion experiments that separate singular invariant
measures from absolutely continuous ones.  Callers import from the
submodules (``circlebreak.maps``, ``circlebreak.singularity``, ...).
"""

__version__ = "0.1.0"
