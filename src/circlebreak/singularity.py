"""Regular break covers and the measure-concentration experiments.

Turns a tuned two-break map into quantitative evidence about its
invariant measure: cover triples centered on a break preimage, and the
G*F product gap that keeps Dist(.; f^{q_n}) away from 1, which is the
paper's criterion and alone decides a two-break verdict.
"""

from __future__ import annotations

import math
import statistics
from itertools import accumulate
from typing import NamedTuple

from .numerics import (
    MACHINE_EPS,
    arc_length,
    in_arc,
    ordered_sum,
    to_circle,
    wrap_signed,
)
from .errors import (
    ConfigError,
    HypothesisNotCertified,
    InvalidGeometry,
    InvariantFailure,
    PrecisionBudgetExceeded,
    TolUnreachable,
)
from .maps import (
    MAP_KINDS,
    CircleMap,
    advance,
    check_orbit_length,
    map_stats,
    retreat,
)
from .rotation import TUNE_TOL_FLOOR, ContinuedFraction, TuneResult, tune_translation
from .partition import DynamicalPartition, build_partition
from .crossratio import (
    Quadruple,
    distortion_chain,
    f_func,
    lift_into,
    normalized_coords,
    single_break_closed_form,
)

# Relative slack for certification checks on quantities that are exact
# by construction up to rounding.
CERT_SLACK = 1e-9

# Placement rounds ``solve_same_orbit`` allows for same_orbit_steps > 1.
SAME_ORBIT_ROUNDS = 40

# Move of c between placement rounds at which ``solve_same_orbit`` stops.
SAME_ORBIT_TOL = 1e-9

# Verdict thresholds of a two-break map: the deep half of the distortion
# gaps must reach GAP_ABS_FLOOR and GAP_FLOOR_RATIO times their median.
GAP_FLOOR_RATIO = 0.5
GAP_ABS_FLOOR = 1e-6

# Share of the invariant measure whose least carrying length the Lorenz
# curve reports as lorenz_90_length.
LORENZ_MASS = 0.90


def r6_bound(sigma_a, sigma_c):
    """Tail constant R6 with |Phi2 - 1| <= R6 (1/xi_l + 1/xi_p) for xi >= 10.

    Phi2 = A B with A = (1 + xi_l)/(sigma_a + xi_l) and
    B = (1 + xi_p)/(s + xi_p), where s = sigma_c + (1 - sigma_c) z lies
    between sigma_c and 1 for z in [0, 1].  With alpha = |1 - sigma_a| and
    gamma = |1 - sigma_c|, A - 1 = (1 - sigma_a)/(sigma_a + xi_l) gives
    |A - 1| <= alpha/xi_l, and likewise |B - 1| <= gamma/xi_p.  Then
    |AB - 1| <= |A - 1| + |B - 1| + |A - 1||B - 1|, and for xi_l, xi_p >= 10,
    1/(xi_l xi_p) <= (1/xi_l + 1/xi_p)/20, so
    R6 = max(alpha, gamma) + alpha gamma/20 bounds every z.  Floor at 1
    since C0 assumes R6 >= 1.
    """
    alpha, gamma = abs(1.0 - sigma_a), abs(1.0 - sigma_c)
    return max(max(alpha, gamma) + alpha * gamma / 20.0, 1.0)


class RegularCoverParams(NamedTuple):
    """Geometry constants for regular cover triples.

    c0 >= 1 scales the long side of the triple, zeta0 in (0, 1] caps the
    normalized offset of the second break, v is the log-derivative
    variation of the map the constants were derived for.  degenerate
    marks the sigma_a*sigma_c = 1 family, where the gap machinery has no
    lower bound to enforce and the constants collapse to neutral values.
    """

    c0: float
    zeta0: float
    v: float
    sigma_a: float
    sigma_c: float
    r6: float
    degenerate: bool = False

    @property
    def gap_floor(self):
        """Lower bound on |G*F - 1| for certified coordinates."""
        return abs(self.sigma_a * self.sigma_c - 1.0) / 4.0


def make_cover_params(sigma_a, sigma_c, v) -> RegularCoverParams:
    """Constants C0 and zeta0 for the cover construction.

    zeta0 comes from the closed form; C0 needs the Phi2 tail constant of
    r6_bound.  The sup of Phi1(z) = ss + (1 - sigma_c) sigma_a z over z
    in [0,1] is max(ss, sigma_a): Phi1 is linear with endpoint values ss
    and sigma_a.

    The clamps give c0 >= 1 and zeta0 <= 1.  Before them the two
    quotients multiply to 2 R6 max(ss, sigma_a) / |ss - sigma_a| >= 2,
    since |ss - sigma_a| < max(ss, sigma_a), so a finite c0 leaves
    zeta0 > 0.
    """
    if not (sigma_a > 0 and sigma_c > 0):  # refuses nan too
        raise InvalidGeometry("jump ratios must be positive")
    if not v > 0:
        raise InvalidGeometry("log-derivative variation must be positive")
    ss = sigma_a * sigma_c
    r6 = r6_bound(sigma_a, sigma_c)
    if abs(ss - 1.0) <= 1e-12:
        return RegularCoverParams(
            c0=1.0,
            zeta0=1.0,
            v=v,
            sigma_a=sigma_a,
            sigma_c=sigma_c,
            r6=r6,
            degenerate=True,
        )
    if abs(sigma_c - 1.0) <= 1e-15:
        raise InvalidGeometry("sigma_c = 1 leaves only one genuine break")
    if ss == sigma_a:  # zeta0's denominator rounds to 0
        raise PrecisionBudgetExceeded(f"sigma_a * sigma_c rounds back to sigma_a = {sigma_a!r}")
    try:
        ev = math.exp(v)
    except OverflowError:
        ev = math.inf
    zeta0 = min(abs(ss - 1.0) / (2.0 * ev * abs(ss - sigma_a)), 1.0)
    m_sigma = max(ss, sigma_a)
    c0 = max(4.0 * r6 * ev * m_sigma / abs(ss - 1.0), 1.0)
    if not math.isfinite(c0):
        raise PrecisionBudgetExceeded(f"cover constant C0 is past the float range at v = {v!r}")
    return RegularCoverParams(
        c0=c0, zeta0=zeta0, v=v, sigma_a=sigma_a, sigma_c=sigma_c, r6=r6
    )


def _cover_params(m: CircleMap):
    """(params, mirror) for a two-break map, from its jump ratios and v.

    The mirror serves the reflected construction.  Reflecting the circle
    swaps left and right one-sided derivatives, so the triple anchored on
    its third point sees the inverted jump ratios, and the gap floor
    shrinks accordingly: the mirrored product tends to
    1/(sigma_a*sigma_c) instead of sigma_a*sigma_c.
    """
    sigma_a, sigma_c, v = m.breaks[0].sigma, m.breaks[1].sigma, map_stats(m).v
    return (
        make_cover_params(sigma_a, sigma_c, v),
        make_cover_params(1.0 / sigma_a, 1.0 / sigma_c, v),
    )


class CoverTriple(NamedTuple):
    """Three adjacent intervals straddling a break preimage abar.

    Lift coordinates z1 < z2 < z3 < z4 on the chart of abar, which sits
    at z2 (left cases) or z3 (c_in_U_right).  case_tag is one of
    c_outside_U, c_in_U_left, c_in_U_right and a_only.  l_index and
    p_index are the forward times at which the hull covers each break;
    p_index is meaningful only when case_tag says the second break is
    covered.  cbar_is_abar says that the second break's preimage cbar is
    abar itself, as when c is a's (p_index - l_index)-th image in
    floating point.
    """

    z1: float
    z2: float
    z3: float
    z4: float
    case_tag: str
    l_index: int
    p_index: int
    cbar_is_abar: bool

    @property
    def quadruple(self) -> Quadruple:
        return Quadruple(self.z1, self.z2, self.z3, self.z4)

    @property
    def covers_second_break(self) -> bool:
        return self.case_tag in ("c_in_U_left", "c_in_U_right")


def _circle_gap(u, w):
    return min(arc_length(u, w), arc_length(w, u))


def _roundtrip_check(m: CircleMap, pre, steps: int, loc):
    back = advance(m, pre, 0, steps)[0]
    if _circle_gap(back, loc) > 1e-8:
        raise InvariantFailure(
            f"roundtrip through {steps} backward steps moved the break by "
            f"{_circle_gap(back, loc):.3e}"
        )


def break_preimages(m: CircleMap, deep: DynamicalPartition):
    """Each break's backward orbit, entry 0 the break itself, for the
    ranks up to deep.n: rank n reads its preimages off the first q_n
    entries and d_n's backward point q_{n-1} entries past abar, so the
    orbit runs deep.q_n + deep.q_nm1 - 1 steps.  ``retreat`` carries x
    alone, so entry l + k is entry l's k-th preimage bit for bit.
    """
    tables = []
    for brk in m.breaks:
        pres = [brk.location]
        retreat(m, brk.location, 0, deep.q_n + deep.q_nm1 - 1, pres)
        tables.append(pres)
    return tables


def regular_cover_triple(m: CircleMap, part: DynamicalPartition, tables) -> CoverTriple:
    """Cover triple around the first break's preimage at rank part.n.

    ``tables`` (``break_preimages``) give abar, the first break pulled
    back by its cell's orbit index into the window W = [T^{q_n}x0,
    T^{q_{n-1}}x0], and cbar, the second break's preimage within q_n
    steps nearest abar: a window point can have two, and the hull around
    abar reaches the one on abar's own orbit.
    That index l is the least k < q_n whose table entry lies in W.  The
    cells of xi_n are f^i(Delta_{n-1}), i < q_n, and f^j(Delta_n),
    j < q_{n-1}, with W = Delta_{n-1} u Delta_n, and the break a lies
    inside exactly one of them (partition orbits clear the breaks), so
    f^{-k}(a) is in W iff a is in f^k(Delta_{n-1}) or f^k(Delta_n).  For
    q_{n-1} <= k < q_n, f^k(Delta_n) lies inside
    f^{k-q_{n-1}}(Delta_{n-1}), by the refinement
    Delta_{n-1} = Delta_{n+1} u (union over s < k_{n+1} of
    f^{q_{n-1}+s q_n}(Delta_n)); so every later in-window index has a
    smaller one before it, and the least is the orbit index of a's cell.
    Sizes come from d_n (clearance to the q_{n-1} neighbors of abar)
    through V_n and its zeta0-core U_n; the position of the second
    break's preimage relative to U_n selects between the one-sided cover
    and the two asymmetric two-break covers, whose offset is within
    zeta0 by that choice.  Their ratio matching C0 is audited here; the
    q_n-smallness of the hull and that each break is covered exactly
    once along its q_n iterates are audited on the distortion chain
    (``_check_hull_images``).
    """
    if len(m.breaks) != 2:
        raise InvalidGeometry("cover triples need a map with exactly two breaks")
    params = _cover_params(m)[0]
    a_loc, c_loc = m.breaks[0].location, m.breaks[1].location
    pre_a, pre_c = tables
    # parity: x_{q_k} lies right of x0 iff k is even
    w_left, w_right = part.orbit[part.q_nm1], part.orbit[part.q_n]
    if part.n % 2:
        w_left, w_right = w_right, w_left
    for l in range(part.q_n):
        if in_arc(pre_a[l], w_left, w_right):
            break
    else:
        raise InvariantFailure(
            f"no preimage of break {a_loc!r} within q_n={part.q_n} steps lies "
            f"in the window [{w_left!r}, {w_right!r}]"
        )
    abar = pre_a[l]
    _roundtrip_check(m, abar, l, a_loc)
    p = min(range(part.q_n), key=lambda k: _circle_gap(pre_c[k], abar))
    cbar = pre_c[p]
    _roundtrip_check(m, cbar, p, c_loc)
    if p > l and advance(m, a_loc, 0, p - l)[0] == c_loc:
        # c is a's (p - l)-th image in floating point, so its preimage is
        # abar itself; pulling c back separately would only add rounding
        cbar = abar
    cbar_is_abar = cbar == abar

    fwd = advance(m, abar, 0, part.q_nm1)[0]
    bwd = pre_a[l + part.q_nm1]
    d_n = 0.5 * min(_circle_gap(abar, fwd), _circle_gap(abar, bwd))
    h_v = 0.5 * math.exp(-params.v) * d_n / params.c0
    h_u = params.zeta0 * h_v
    if h_u / 2.0 <= 1e3 * MACHINE_EPS:
        raise PrecisionBudgetExceeded(
            f"rank {part.n} clearance d_n={d_n:.3e} leaves cover widths at "
            "the rounding floor"
        )

    delta = wrap_signed(cbar - abar)
    if abs(delta) <= h_u and p == l:
        raise InvariantFailure(
            "both breaks pull back to the same time step; the one-step "
            "factors cannot be separated"
        )
    if abs(delta) > h_u:
        tag = "a_only" if params.degenerate else "c_outside_U"
        z1, z2, z3, z4 = abar - h_u / 2.0, abar, abar + h_u / 2.0, abar + h_u
    else:
        if delta <= 0.0:
            tag = "c_in_U_left"
            z1, z2 = abar - h_v, abar
            z3, z4 = abar + params.c0 * h_v, abar + 2.0 * params.c0 * h_v
            xi0 = (z3 - z2) / (z2 - z1)
        else:
            tag = "c_in_U_right"
            z1, z2 = abar - 2.0 * params.c0 * h_v, abar - params.c0 * h_v
            z3, z4 = abar, abar + h_v
            xi0 = (z3 - z2) / (z4 - z3)
        if abs(xi0 - params.c0) > CERT_SLACK * params.c0:
            raise InvariantFailure(
                f"constructed ratio {xi0!r} drifted from C0 {params.c0!r}"
            )

    return CoverTriple(z1, z2, z3, z4, tag, l, p, cbar_is_abar)


def gf_gap(params: RegularCoverParams, xi_l, xi_p, z_p):
    """|G(xi_l) * F(xi_p, z_p) - 1| under certified hypotheses.

    The construction guarantees xi(0) >= C0 and z(0) <= zeta0; pushing
    the triple forward distorts ratios by at most e^{+-v}, so the
    evaluated coordinates must clear C0 e^{-v} and stay under
    zeta0 e^{v}.  Outside those ranges the lower bound is not claimed
    and the call is refused.  For non-degenerate parameters the result
    is asserted against the |sigma_a sigma_c - 1|/4 floor.
    """
    ev = math.exp(params.v)
    slack = 1.0 + CERT_SLACK
    if not (xi_l > 0 and xi_p > 0):  # refuses nan too
        raise HypothesisNotCertified("gap ratios must be positive")
    floor_xi = params.c0 / ev / slack
    if xi_l < floor_xi or xi_p < floor_xi:
        raise HypothesisNotCertified(
            f"ratios ({xi_l!r}, {xi_p!r}) fall below the certified floor "
            f"C0 e^-v = {floor_xi!r}"
        )
    cap_z = min(params.zeta0 * ev * slack, 1.0 + CERT_SLACK)
    if not -CERT_SLACK <= z_p <= cap_z:
        raise HypothesisNotCertified(
            f"normalized offset {z_p!r} exceeds the certified range "
            f"[0, {cap_z!r}]"
        )
    z = min(max(z_p, 0.0), 1.0)
    value = f_func(xi_l, 0.0, params.sigma_a) * f_func(xi_p, z, params.sigma_c)
    gap = abs(value - 1.0)
    if not params.degenerate and gap < params.gap_floor:
        raise InvariantFailure(
            f"certified product gap {gap!r} undercuts the floor "
            f"{params.gap_floor!r}"
        )
    return gap


class ReportRow(NamedTuple):
    """One rank of a report; its fields are the columns of ``rows.csv``
    and the keys of a ``report.json`` row, in this order.

    dist_qn_gap is |Dist(z; f^{q_n}) - 1| on the cover triple; gf_gap is
    the Lemma-level product gap when the triple covers both breaks, else
    None.
    """

    n: int
    q_n: int
    gf_gap: float | None
    dist_qn_gap: float
    case_tag: str


def _generator_quadruple(part: DynamicalPartition) -> Quadruple:
    # thirds of the rank-(n-1) generator [x0, x_{q_{n-1}}], the cell of
    # orbit index 0, which the cell table lists first
    lo, length = part.elements.left[0], part.elements.length[0]
    return Quadruple(
        lo, lo + length / 3.0, lo + 2.0 * length / 3.0, lo + length
    )


def _check_hull_images(
    m: CircleMap, part: DynamicalPartition, triple: CoverTriple, res
):
    """Audit the cover hull's first q_n images, the distortion chain's
    quadruples 0..q_n-1.

    The hull is q_n-small: its images, sorted by circle left end, each
    end before the next one starts, within 10 eps q_n.  Each break lies
    in exactly one image: the first at l_index, the second at p_index
    when the case tag says the triple covers it, and never otherwise.
    """
    q_n = part.q_n
    a_loc, c_loc = m.breaks[0].location, m.breaks[1].location
    lefts, lengths, a_hits, c_hits = [], [], [], []
    for j, (z1, _, _, z4) in enumerate(res.quadruples[:q_n]):
        lo, hi = to_circle(z1), to_circle(z4)
        lefts.append(lo)
        lengths.append(z4 - z1)
        if in_arc(a_loc, lo, hi):
            a_hits.append(j)
        if in_arc(c_loc, lo, hi):
            c_hits.append(j)

    tol = 10 * MACHINE_EPS * q_n
    order = sorted(range(q_n), key=lefts.__getitem__)
    disjoint = q_n == 1 or all(
        lengths[a] <= arc_length(lefts[a], lefts[b]) + tol
        for a, b in zip(order, order[1:] + order[:1])
    )
    if not disjoint:
        raise InvariantFailure(
            f"cover hull of length {lengths[0]:.3e} is not q_{part.n}-small"
        )

    want_c = [triple.p_index] if triple.covers_second_break else []
    if a_hits != [triple.l_index]:
        raise InvariantFailure(
            f"first break covered at steps {a_hits}, expected [{triple.l_index}]"
        )
    if c_hits != want_c:
        raise InvariantFailure(
            f"second break covered at steps {c_hits}, expected {want_c}"
        )


def _qn_row(m: CircleMap, part: DynamicalPartition, tables) -> ReportRow:
    """|Dist(z; f^{q_n}) - 1| at the rank of ``part``, with ``tables`` the
    breaks' backward orbits (``break_preimages``).

    Two-break maps get the full cover construction with the one-step
    factors audited against their closed forms; break-free maps fall
    back to generator-scale quadruples, where the gap must vanish for a
    rigid rotation.
    """
    gf = None
    if len(m.breaks) == 2:
        triple = regular_cover_triple(m, part, tables)
        res = distortion_chain(triple.quadruple, m, part.q_n)
        _check_hull_images(m, part, triple, res)
        case_tag, l, p = triple.case_tag, triple.l_index, triple.p_index
    else:
        triple = None
        res = distortion_chain(_generator_quadruple(part), m, part.q_n)
        case_tag = "break_free"
    gap = abs(res.total - 1.0)
    image_len_sum = ordered_sum(q.hull for q in res.quadruples[: part.q_n])
    if image_len_sum > 1.0 + 1e-9:
        raise InvariantFailure(
            f"hull iterates overlap: total image length {image_len_sum!r}"
        )

    if triple is not None:
        audited = [(l, m.breaks[0], "first")]
        if triple.covers_second_break:
            audited.append((p, m.breaks[1], "second"))
        for step, brk, which in audited:
            # the chain's rounding carries the tracked point off the break,
            # to either side; the PL frame at the break's own lift predicts
            # the factor wherever in the hull it falls
            cf = single_break_closed_form(
                res.quadruples[step], res.quadruples[step + 1], brk, m
            )
            if abs(cf.actual - cf.predicted) > cf.bound:
                raise InvariantFailure(
                    f"one-step factor {cf.actual!r} at the {which} break "
                    f"differs from its closed form {cf.predicted!r} beyond "
                    f"{cf.bound!r}"
                )

    if triple is not None and triple.covers_second_break:
        nc_l = normalized_coords(res.quadruples[l])
        qp = res.quadruples[p]
        c_lift = lift_into(m.breaks[1].location, qp.z1)
        if triple.cbar_is_abar:
            # c is a's image, so at step p the break is z2's image: offset
            # 0 up to the chain's rounding; when that rounding carries c
            # past z2 into the middle gap, it is z2 all the same
            c_lift = min(c_lift, qp.z2)
        nc = normalized_coords(qp, cbar=c_lift)
        params, mirror = _cover_params(m)
        if triple.case_tag == "c_in_U_left":
            gf_args = (params, nc_l.xi, nc.xi, nc.z)
        else:
            gf_args = (mirror, nc_l.eta, nc.eta, nc.theta)
        if gf_args[3] is None:
            raise InvariantFailure(
                "second break left its stated interval along the chain"
            )
        gf = gf_gap(*gf_args)

    return ReportRow(part.n, part.q_n, gf, gap, case_tag)


class LorenzCurve(NamedTuple):
    """Cumulative (length, mass) after sorting elements by density.

    lorenz_90_length is the least total Lebesgue length of partition
    elements that together carry at least LORENZ_MASS of the invariant
    measure; its decay across ranks is the concentration signature.
    """

    n: int
    points: tuple
    lorenz_90_length: float


def mass_length_curve(part: DynamicalPartition, masses):
    """Lorenz curve of ``part`` with one mass per cell, in cell order.

    No command draws it; ``perfbench/trace_launcher.py`` binds it.
    """
    el = part.elements
    # densest first; ties by rank tag, then index
    order = sorted(
        range(len(el)),
        key=lambda r: (-(masses[r] / el.length[r]), el.rank_tag[r], el.index[r]),
    )
    lens = list(accumulate(el.length[r] for r in order))
    cums = list(accumulate(masses[r] for r in order))
    hit = next((l for l, c in zip(lens, cums) if c >= LORENZ_MASS - 1e-12), lens[-1])
    pts = [(0.0, 0.0)] + list(zip(lens, cums))
    return LorenzCurve(n=part.n, points=tuple(pts), lorenz_90_length=hit)


def solve_same_orbit(
    config: ExperimentConfig, target: ContinuedFraction, tune_tol: float = 1e-10
):
    """The config's two-break map with the second break c on the first
    break a's orbit, c = f^{m_steps}(a) for ``m_steps`` the config's
    ``same_orbit_steps``.  The solve places c, so the config's c is not
    read.  A config that places no second break (a rotation, or a null
    ``same_orbit_steps``) raises ValueError.

    Every base lift is anchored at f(a) = a, so with ``m_steps`` 1 the
    condition c = f_t(a) reads c = a + t (mod 1).  The maps
    h_t = build(a + t, t) are then one family in t, tuned once by
    ``tune_translation``; ``maps.advance`` computes h_t(a) as a + t bit
    for bit, so the residual |h_t(a) - c| is exactly 0.

    For ``m_steps`` > 1, c has no closed form in t.  The solve alternates
    tuning the translation to the target rotation number with re-placing
    c at f^{m_steps}(a) until both are consistent; each round rebuilds
    the map because moving c changes it.  Tuning runs coarse to fine: a
    round tunes only to max(tune_tol, 1e-2 * previous gap), since a finer
    translation cannot matter while c itself still moves by the gap, and
    convergence (gap <= SAME_ORBIT_TOL) counts only on a round tuned at
    the full ``tune_tol``.  The accepted c is then retuned at ``tune_tol``.

    Either way the residual |f^{m_steps}(a) - c| must stay within
    10 * SAME_ORBIT_TOL.  The orbit budget bounds the tuning orbits and
    the m_steps placement orbit.  Returns the tuned map and its
    TuneResult.
    """
    m_steps = config.same_orbit_steps
    if config.kind == "rotation" or m_steps is None:
        raise ValueError("the config places no second break on the first one's orbit")
    check_orbit_length(m_steps)
    a = config.a
    a_circ = to_circle(a)

    def build(c_pos, translation=0.0):
        return _config_map(config._replace(c=c_pos), translation)

    def checked(final, tr):
        c = final.breaks[1].location
        resid = _circle_gap(advance(final, a_circ, 0, m_steps)[0], c)
        if resid > 10.0 * SAME_ORBIT_TOL:
            raise TolUnreachable(
                f"same-orbit residual {resid:.3e} exceeds "
                f"{10.0 * SAME_ORBIT_TOL:.1e}"
            )
        return final, tr

    if m_steps == 1:

        def family(t):
            return build(to_circle(a_circ + t), t)

        rep = build(to_circle(a_circ + target.value))
        tr = tune_translation(rep, target, tol=tune_tol, family=family)
        return checked(family(tr.translation), tr)

    c = to_circle(a + 0.61 * m_steps)
    gap = 1.0
    for _ in range(SAME_ORBIT_ROUNDS):
        round_tol = max(tune_tol, 1e-2 * gap)
        base = build(c)
        tr = tune_translation(base, target, tol=round_tol)
        tuned = base.with_translation(tr.translation)
        c_new = advance(tuned, a_circ, 0, m_steps)[0]
        gap = _circle_gap(c_new, c)
        if gap <= SAME_ORBIT_TOL and round_tol == tune_tol:
            tr = tune_translation(build(c_new), target, tol=tune_tol)
            return checked(build(c_new, tr.translation), tr)
        c = c_new
    raise TolUnreachable(
        f"same-orbit placement did not converge in {SAME_ORBIT_ROUNDS} rounds"
    )


class _ExperimentConfigFields(NamedTuple):
    kind: str
    label: str = "experiment"
    a: float = 0.2
    c: float = 0.6
    sigma_a: float = 2.0
    sigma_c: float = 0.8
    slope_ratio: float = 2.0
    rho_quotients: tuple = tuple([1] * 30)
    x0: float = 0.05
    n_min: int = 5
    n_max: int = 12
    same_orbit_steps: int | None = None


class ExperimentConfig(_ExperimentConfigFields):
    """Declarative description of one singularity experiment."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not (isinstance(self.kind, str) and self.kind in MAP_KINDS):
            raise ConfigError(f"unknown map kind {self.kind!r}")
        if not 1 <= self.n_min <= self.n_max:
            raise ConfigError("need 1 <= n_min <= n_max")
        qs = tuple(int(k) for k in self.rho_quotients)
        if len(qs) < self.n_max + 2 or any(k < 1 for k in qs):
            raise ConfigError(
                "rho_quotients must reach n_max + 2 with entries >= 1"
            )
        if self.kind != "rotation" and self.n_min == 1 and qs[0] == 1:
            raise ConfigError(
                "a two-break experiment with k_1 = 1 needs n_min >= 2: then "
                "q_1 = q_0, and the rank-1 cover window is a single point"
            )
        cf = ContinuedFraction.from_quotients(qs)
        width = tuning_width(cf, self.n_max)
        if not width >= TUNE_TOL_FLOOR:
            raise ConfigError(
                f"n_max {self.n_max} needs rho to {width:.2g}, finer than the "
                f"certifiable {TUNE_TOL_FLOOR:g}"
            )
        if self.same_orbit_steps is not None and self.same_orbit_steps < 1:
            raise ConfigError("same_orbit_steps must be >= 1 when set")
        return self._replace(rho_quotients=qs)


VERDICT_SINGULAR = "SINGULAR_EVIDENCE"
VERDICT_BASELINE = "AC_BASELINE"
VERDICT_OPEN = "INCONCLUSIVE"


class SingularityReport(NamedTuple):
    label: str
    kind: str
    map_params: tuple
    rho_quotients: tuple
    translation: float
    v: float
    rows: tuple
    verdict: str
    gap_floor_ok: bool
    min_upper_gap: float
    median_gap: float
    notes: tuple
    # (key, value) pairs of the rho certificate
    diagnostics: tuple = ()

    def to_json_dict(self) -> dict:
        """Every field, in field order, with the pair tuples as objects and
        each row as its fields."""
        doc = self._asdict()
        doc.update(
            map_params=dict(self.map_params),
            rows=[r._asdict() for r in self.rows],
            diagnostics=dict(self.diagnostics),
        )
        return doc


def tuning_width(cf: ContinuedFraction, n: int) -> float:
    """Width 1 / (q_{n+1} q_{n+2}) of the target's bracket n + 2, to which
    an experiment with ``n_max`` n tunes its map.

    xi_k has the target's cyclic order on the whole open bracket k.  Its
    ends p_{k-1}/q_{k-1} and p_k/q_k are Farey neighbours, so every
    fraction strictly between them has a denominator of at least
    q_{k-1} + q_k, which is the length of xi_k's orbit: no two of its
    points can trade places while rho stays inside.  Bracket n + 2 lies
    inside every bracket k <= n + 2, so every rank of the report has its
    combinatorics.

    Inside bracket n + 2, beta_n = |q_n rho - p_n| runs linearly between
    k_{n+2}/q_{n+2} and 1/q_{n+1}; inside bracket n + 1, beta_{n-1}
    likewise runs between k_{n+1}/q_{n+1} and 1/q_n.  Each pair of ends
    is within a factor 1 + 1/k <= 2, so both cell masses of xi_n stay
    within a factor 2 of the target's, and the cells keep their scale.
    """
    # int division rounds correctly and gives 0.0, not OverflowError, past
    # the float range, as ContinuedFraction.bracket_within's does
    return 1 / (cf.q(n + 1) * cf.q(n + 2))


def _config_map(config: ExperimentConfig, translation=0.0) -> CircleMap:
    """The map of the config's kind, built from its ``MAP_KINDS`` row."""
    build, names = MAP_KINDS[config.kind]
    return build(*(getattr(config, name) for name in names), translation)


def build_experiment_map(config: ExperimentConfig, target: ContinuedFraction):
    """Map described by the config, tuned to ``target``, the continued
    fraction of ``config.rho_quotients``, with its TuneResult and notes.

    Tuning stops at the target's bracket n_max + 2 (``tuning_width``).
    The rotation is not tuned: its TuneResult carries the same bracket,
    which holds ``target.value`` by construction.
    """
    notes = []
    width = tuning_width(target, config.n_max)
    if config.kind == "rotation":
        rho = target.bracket(config.n_max + 2)
        tr = TuneResult(target.value, rho, None, width)
        return _config_map(config, target.value), tr, notes
    if config.same_orbit_steps is not None:
        m, tr = solve_same_orbit(config, target, width)
        notes.append(
            f"second break placed on the first break's orbit after "
            f"{config.same_orbit_steps} steps"
        )
        return m, tr, notes
    base = _config_map(config)
    tr = tune_translation(base, target, tol=width)
    return base.with_translation(tr.translation), tr, notes


def singularity_report(config: ExperimentConfig) -> SingularityReport:
    """Full experiment: tune (enclosing rho), partition, cover, gap.

    A two-break map is SINGULAR_EVIDENCE when the distortion gaps stay
    bounded away from zero on the deep ranks (``gap_floor_ok``), the
    paper's criterion: Dist(.; f^{q_n}) bounded away from 1 on the cover
    triples rules out an absolutely continuous measure.  It is
    INCONCLUSIVE otherwise.  A map without two breaks is AC_BASELINE when
    it is a rigid rotation, v = Var log Df = 0, which preserves Lebesgue
    measure, and its gaps stay below 1e-8; it is INCONCLUSIVE otherwise.
    """
    cf = ContinuedFraction.from_quotients(config.rho_quotients)
    m, tr, notes = build_experiment_map(config, cf)
    translation = tr.translation
    stats = map_stats(m)
    deep = build_partition(m, cf, config.x0, config.n_max)
    tables = break_preimages(m, deep)

    two_break = len(m.breaks) == 2
    if two_break:
        params = _cover_params(m)[0]
        notes.append(
            f"cover constants: C0={params.c0:.6g}, zeta0={params.zeta0:.6g}, "
            f"R6={params.r6:.6g}"
        )

    rows = [
        _qn_row(m, deep.coarsen(n), tables)
        for n in range(config.n_min, config.n_max + 1)
    ]

    gaps = [r.dist_qn_gap for r in rows]
    upper = gaps[len(gaps) // 2 :]
    min_upper = min(upper)
    med = statistics.median(gaps)

    if two_break:
        # the ratio test alone would accept a sequence of numerical zeros
        gap_floor_ok = min_upper >= GAP_ABS_FLOOR and min_upper >= GAP_FLOOR_RATIO * med
        verdict = VERDICT_SINGULAR if gap_floor_ok else VERDICT_OPEN
    else:
        gap_floor_ok = False
        rigid = stats.v == 0.0 and max(gaps) < 1e-8
        verdict = VERDICT_BASELINE if rigid else VERDICT_OPEN

    if config.kind == "rotation":
        map_params = (("translation", translation),)
    else:
        # a same-orbit solve places c itself, and the map reduces both breaks
        # mod 1, so the map, not the config, has them
        placed = config._replace(a=m.breaks[0].location, c=m.breaks[1].location)
        map_params = tuple(
            (name, getattr(placed, name)) for name in MAP_KINDS[config.kind][1]
        )

    return SingularityReport(
        label=config.label,
        kind=config.kind,
        map_params=map_params,
        rho_quotients=config.rho_quotients,
        translation=translation,
        v=stats.v,
        rows=tuple(rows),
        verdict=verdict,
        gap_floor_ok=gap_floor_ok,
        min_upper_gap=min_upper,
        median_gap=med,
        notes=tuple(notes),
        # build_experiment_map tunes every map to bracket n_max + 2, and its
        # TuneResult carries that bracket's width, tuning_width
        diagnostics=(
            ("rho_bracket", config.n_max + 2),
            ("rho_bracket_width", tr.certified_tol),
            ("tune_bisections", tr.bisections),
        ),
    )
