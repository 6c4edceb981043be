"""Rotation numbers: estimation, certification, and translation tuning.

The Farey/Stern-Brocot machinery rests on one classical fact: for the q-th
iterate of a degree-one lift, f^q(0) >= p implies rho >= p/q and
f^q(0) <= p implies rho <= p/q (the displacement of a monotone commuting
map at a single point bounds its translation number against integers).  So
the sign of f^q(0) - p drives an exact interval bisection over rationals,
with all fraction arithmetic in exact integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor
from typing import NamedTuple

from .errors import NotBracketed, TolUnreachable
from .maps import CircleMap, advance, check_orbit_length, evaluate
from .numerics import MACHINE_EPS, to_circle

# |f^q(0) - p| at or below this many epsilons-times-q is treated as an exact
# hit, i.e. the rotation number is declared rational.
RATIONAL_CUTOFF = 4.0

# Finest translation-tuning tolerance that binary64 can certify.
TUNE_TOL_FLOOR = 1e-12

# Translation bisections before tuning gives up.
MAX_BISECTIONS = 200


class ContinuedFraction(NamedTuple):
    """Partial quotients k_1, k_2, ... of a number in (0, 1), with the
    convergents p_n/q_n built by the standard recursion

        q_{n+1} = k_{n+1} q_n + q_{n-1},   q_0 = 1, q_1 = k_1,

    stored from n = 0, so ``convergents[n] == (p_n, q_n)``.
    """

    quotients: tuple
    convergents: tuple

    @classmethod
    def from_quotients(cls, ks) -> "ContinuedFraction":
        ks = tuple(int(k) for k in ks)
        if any(k < 1 for k in ks):
            raise ValueError("partial quotients must be >= 1")
        p_prev, q_prev = 1, 0  # (p_{-1}, q_{-1})
        p, q = 0, 1  # (p_0, q_0)
        convs = [(p, q)]
        for k in ks:
            p, p_prev = k * p + p_prev, p
            q, q_prev = k * q + q_prev, q
            convs.append((p, q))
        return cls(quotients=ks, convergents=tuple(convs))

    @property
    def depth(self) -> int:
        return len(self.quotients)

    def q(self, n: int) -> int:
        return self.convergents[n][1]

    def p(self, n: int) -> int:
        return self.convergents[n][0]

    def fraction(self, n: int | None = None) -> Fraction:
        n = self.depth if n is None else n
        pn, qn = self.convergents[n]
        return Fraction(pn, qn)

    @property
    def value(self) -> float:
        return float(self.fraction())

    def bracket_within(self, tol) -> int:
        """First n whose convergent bracket [p_{n-1}/q_{n-1}, p_n/q_n] is at
        most ``tol`` wide; ValueError when the quotients run out first."""
        for n in range(1, self.depth + 1):
            # consecutive convergents are 1 / (q_{n-1} q_n) apart
            if 1 / (self.q(n - 1) * self.q(n)) <= tol:
                return n
        raise ValueError(
            f"no convergent bracket of {self.depth} partial quotients is "
            f"within {tol:g}; give more quotients"
        )

    def bracket(self, n: int) -> "RotationEstimate":
        """The convergent bracket [p_{n-1}/q_{n-1}, p_n/q_n] as an enclosure
        whose value is its midpoint; it holds the target for n >= 1."""
        lo, hi = sorted((self.fraction(n - 1), self.fraction(n)))
        return RotationEstimate(
            value=float((lo + hi) / 2), lower=float(lo), upper=float(hi)
        )


def cf_quotients_of_fraction(fr: Fraction):
    """Finite continued fraction of a rational in (0, 1), exact."""
    if not 0 < fr < 1:
        raise ValueError("expected a fraction strictly between 0 and 1")
    ks = []
    a, b = fr.numerator, fr.denominator
    # 1/(a/b) = b/a; Euclid on (b, a).
    num, den = b, a
    while den:
        ks.append(num // den)
        num, den = den, num % den
    return ks


def cf_expand_convergents(rho, n_max: int = 40) -> ContinuedFraction:
    """Continued fraction of a number in (0, 1) by the Gauss map.

    Truncates when the fractional residual drops below 1e3 machine
    epsilons: past that point the floating representation carries no
    more quotients.
    """
    if not 0 < rho < 1:
        raise ValueError("rho must lie strictly between 0 and 1")
    ks = []
    x = rho
    for _ in range(n_max):
        if x < 1e3 * MACHINE_EPS:
            break
        inv = 1 / x
        k = floor(inv)
        ks.append(int(k))
        x = inv - k
    if not ks:
        raise ValueError("no partial quotients resolvable at this precision")
    return ContinuedFraction.from_quotients(ks)


class RotationEstimate(NamedTuple):
    """An estimate with a certified enclosure: lower <= rho <= upper, where
    ``value`` in [0, 1) is the reported representative.  ``rational`` holds
    (p, q) when the bisection certified an exact rational hit."""

    value: float
    lower: float
    upper: float
    rational: tuple | None = None

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _walk(m: CircleMap, x, w: int, at: int, q: int):
    """The orbit state (x, w) of 0 moved from step ``at`` to step ``q`` by
    ``maps.advance``; a q past the orbit budget raises before any step
    runs."""
    check_orbit_length(q)
    return advance(m, x, w, q - at)


def _sign(x, w: int, p: int, q: int) -> int:
    """Certified sign of f^q(0) - p off the orbit state (x, w) of 0 at
    step q; 0 means "within the rational cutoff of an exact hit"."""
    s = x + (w - p)
    if abs(s) <= RATIONAL_CUTOFF * MACHINE_EPS * q:
        return 0
    return 1 if s > 0 else -1


def rho_iterate_estimate(m: CircleMap, n: int) -> RotationEstimate:
    """Plain Birkhoff estimate f^n(0)/n with the certified +-1/n enclosure."""
    if n < 1:
        raise ValueError("n must be >= 1")
    x, w = _walk(m, 0.0, 0, 0, n)
    raw = (x + w) / n
    shift = floor(raw)
    return RotationEstimate(
        value=to_circle(raw),
        lower=raw - 1.0 / n - shift,
        upper=raw + 1.0 / n - shift,
    )


def _bracket_quotients(pl, ql, ph, qh, m0) -> list:
    """Partial quotients the Farey bracket [pl/ql, ph/qh] has settled.

    The next mediant minus m0 is a rational whose continued fraction
    starts with every finished run of the descent; its last quotient
    belongs to the run still growing and is dropped.  An upper end still
    at m0 + 1 (qh == 1) means the descent has only moved the lower end,
    and no quotient is settled.
    """
    if qh == 1:
        return []
    return cf_quotients_of_fraction(Fraction(pl + ph, ql + qh) - m0)[:-1]


def rho_farey(m: CircleMap, depth: int = 60, width: float | None = None):
    """Certified rotation-number enclosure by Farey mediant bisection.

    Returns (RotationEstimate, ContinuedFraction).  Each refinement replaces
    one end of a Farey pair by the mediant according to the sign of
    f^q(0) - p; an exact hit (within the rational cutoff) certifies a
    rational rotation number and stops.  The tests walk the orbit of 0
    once, since the mediant denominators only grow.

    By default the descent takes ``depth`` steps.  With ``width`` set it
    instead stops as soon as the enclosure is at most ``width`` wide, so
    the orbit grows only to the denominators that width needs; ``depth``
    is then ignored and the orbit budget alone bounds the work (running
    into it raises PrecisionBudgetExceeded).
    """
    if width is None and depth < 1:
        raise ValueError("depth must be >= 1")
    if width is not None and not width > 0:
        raise ValueError("width must be positive")
    x, w = _walk(m, 0.0, 0, 0, 1)
    # integer part: f(0) in [m0, m0+1]
    m0 = floor(x + w)
    if _sign(x, w, m0, 1) == 0:
        cfr = ContinuedFraction.from_quotients(())  # rho is an integer
        est = RotationEstimate(0.0, 0.0, 0.0, rational=(m0, 1))
        return est, cfr
    pl, ql = m0, 1
    ph, qh = m0 + 1, 1
    steps = 0
    at = 1

    def descend():
        if width is None:
            return steps < depth
        # test the float width the estimate reports, so callers can rely on it
        lo = float(Fraction(pl - m0 * ql, ql))
        return float(Fraction(ph - m0 * qh, qh)) - lo > width

    rational = None
    while descend():
        pm, qm = pl + ph, ql + qh
        x, w = _walk(m, x, w, at, qm)
        at = qm
        s = _sign(x, w, pm, qm)
        if s == 0:
            rational = (pm, qm)
            break
        if s > 0:
            pl, ql = pm, qm
        else:
            ph, qh = pm, qm
        steps += 1
    if rational is not None:
        p, q = rational
        # a mediant lies strictly between m0 and m0 + 1, so fr is in (0, 1)
        fr = Fraction(p - m0 * q, q)
        ks = cf_quotients_of_fraction(fr)
        cfr = ContinuedFraction.from_quotients(ks)
        v = float(fr)
        return RotationEstimate(v, v, v, rational=rational), cfr
    lo = Fraction(pl - m0 * ql, ql)
    hi = Fraction(ph - m0 * qh, qh)
    mid = (lo + hi) / 2
    ks = _bracket_quotients(pl, ql, ph, qh, m0)
    cfr = ContinuedFraction.from_quotients(ks)
    est = RotationEstimate(value=float(mid), lower=float(lo), upper=float(hi))
    return est, cfr


class TuneResult(NamedTuple):
    """A translation certified to put rho in the target's first convergent
    bracket at most ``certified_tol`` wide; ``rho`` is that bracket.
    ``bisections`` is None for a map that needed no tuning."""

    translation: float
    rho: RotationEstimate
    bisections: int | None
    certified_tol: float


def _compare_to_target(m, target: ContinuedFraction, n: int):
    """Certified comparison of rho(m) against the target's n-th bracket.

    Returns "low", "high" or "within".  Even convergents lie below the
    target and odd ones above, so consecutive ones bracket it.  One walk
    of the orbit of 0 tests each convergent p_k/q_k, k = 0..n, once: a
    sign <= 0 at an even k puts rho(m) at or below p_k/q_k, so at or below
    bracket n's lower end ("low"), and a sign >= 0 at an odd k at or above
    its upper end ("high").  Passing all n + 1 tests certifies rho(m) in
    bracket n ("within").  An orbit past the budget raises
    PrecisionBudgetExceeded.
    """
    x, w, at = 0.0, 0, 0
    for k, (p, q) in enumerate(target.convergents[: n + 1]):
        x, w = _walk(m, x, w, at, q)
        at = q
        s = _sign(x, w, p, q)
        if k % 2 == 0:
            if s <= 0:
                return "low"
        elif s >= 0:
            return "high"
    return "within"


def tune_translation(
    m: CircleMap,
    target: ContinuedFraction,
    tol: float = 1e-10,
    family=None,
) -> TuneResult:
    """Find t with |rho(f_t) - target| <= tol by bisection on t.

    ``target`` is the finite continued fraction that stands in for an
    irrational rotation number.  The certificate is its first convergent
    bracket [p_{n-1}/q_{n-1}, p_n/q_n] at most ``tol`` wide, which holds
    the target; too few quotients for such a bracket raise ValueError
    before any orbit runs.  The returned t is certified by the oracle:
    exact Farey tests place rho(f_t) of that very map inside the bracket
    ("within").  Monotonicity of t -> rho(f_t) only lets bisection find
    such a t; the certificate does not rest on it.

    ``family`` maps t to the map f_t to test and defaults to
    ``m.with_translation``, i.e. f_t = f + t.  A family that moves more
    than the translation (the same-orbit maps, whose second break sits at
    a + t) passes a representative member as ``m``: its displacement
    range only seeds the starting bracket, whose ends the oracle checks.
    """
    if not tol >= TUNE_TOL_FLOOR:
        raise ValueError(
            f"tolerances below {TUNE_TOL_FLOOR:g} are not certifiable in binary64"
        )
    n = target.bracket_within(tol)
    est = target.bracket(n)
    if family is None:
        family = m.with_translation
    base = m.with_translation(0.0)
    # Displacement range of the base lift bounds rho(f_t) - t.
    grid = [i / 512 for i in range(512)] + [b.location for b in base.breaks]
    disps = [evaluate(base, x) - x for x in grid]
    dmin, dmax = min(disps), max(disps)
    t_lo = target.value - dmax - 1e-9
    t_hi = target.value - dmin + 1e-9

    def oracle(t):
        return _compare_to_target(family(t), target, n)

    r_lo = oracle(t_lo)
    r_hi = oracle(t_hi)
    for _ in range(4):
        if r_lo in ("low", "within"):
            break
        t_lo -= 0.5
        r_lo = oracle(t_lo)
    for _ in range(4):
        if r_hi in ("high", "within"):
            break
        t_hi += 0.5
        r_hi = oracle(t_hi)
    if r_lo == "within":
        return TuneResult(t_lo, est, 0, tol)
    if r_hi == "within":
        return TuneResult(t_hi, est, 0, tol)
    if r_lo != "low" or r_hi != "high":
        raise NotBracketed(
            f"could not bracket target {target.value!r} within [{t_lo}, {t_hi}]"
        )
    for it in range(1, MAX_BISECTIONS + 1):
        t_mid = 0.5 * (t_lo + t_hi)
        res = oracle(t_mid)
        if res == "within":
            return TuneResult(t_mid, est, it, tol)
        if res == "low":
            t_lo = t_mid
        else:
            t_hi = t_mid
    raise TolUnreachable(f"no certification after {MAX_BISECTIONS} bisections")


def convergent_error(cf: ContinuedFraction, rho, n: int) -> float:
    """beta_n = |q_n rho - p_n| against the n-th convergent.

    Coincides with the nearest-integer distance for n >= 1; at n = 0
    the convergent is 0/1, so beta_0 = rho itself, which is what the
    rank-0 partition masses are.
    """
    pn, qn = cf.p(n), cf.q(n)
    return abs(qn * rho - pn)
