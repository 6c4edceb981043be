"""Exception types shared across the package.

Each failure mode gets its own class so tests and the CLI can react to the
cause rather than parsing messages.  The CLI maps these onto exit codes.
"""


class CircleBreakError(Exception):
    """Base class for all package-specific failures."""


class PrecisionBudgetExceeded(CircleBreakError):
    """An orbit would exceed the fixed budget of map evaluations
    (``numerics.ORBIT_CAP``), or a quantity fell below what the
    arithmetic type can resolve."""


class InvalidGeometry(CircleBreakError):
    """Map construction parameters are degenerate (coincident or missing
    break points, non-positive slope ratio, ...)."""


class InfeasibleDerivatives(CircleBreakError):
    """The closure condition on the derivative profile forced a non-positive
    one-sided derivative."""


class NotClassP(CircleBreakError):
    """One-sided derivatives are not bounded away from zero/infinity."""


class NotBracketed(CircleBreakError):
    """Rotation-number tuning could not bracket the target."""


class TolUnreachable(CircleBreakError):
    """Requested tolerance cannot be certified within the evaluation budget."""


class BreakCollision(CircleBreakError):
    """An orbit point landed on (or indistinguishably close to) a break."""


class InvariantFailure(CircleBreakError):
    """A machine-checked invariant did not hold."""


class RefinementViolation(InvariantFailure):
    """Consecutive dynamical partitions failed the refinement relation."""


class DegenerateQuadruple(CircleBreakError):
    """Quadruple points are out of order or too close to resolve."""


class BreakNotInStatedInterval(CircleBreakError):
    """The break point required by a closed-form prediction is missing from
    the stated side interval of the quadruple."""


class HypothesisNotCertified(CircleBreakError):
    """A lower-bound assertion was requested without the certified initial
    coordinates that justify it."""


class OrderViolation(CircleBreakError):
    """Orbit circular order disagrees with the rigid-rotation order."""


class RankTooShallow(CircleBreakError):
    """A partition or Denjoy product was asked for a rank n beyond the
    continued fraction's partial quotients: ``build_partition`` and
    ``denjoy_product`` need at least n of them."""


class ConfigError(CircleBreakError):
    """Experiment configuration is malformed."""
