import ast
import inspect
import math
import random
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circlebreak import numerics
from circlebreak.crossratio import _general_row, distortion_rows
from circlebreak.errors import (
    CircleBreakError,
    InfeasibleDerivatives,
    InvalidGeometry,
    NotClassP,
    PrecisionBudgetExceeded,
)
from circlebreak.maps import (
    MAP_KINDS,
    _segment_walk,
    abs_d2f_integral,
    advance,
    clears_breaks,
    df_product,
    evaluate,
    gap_image,
    iterate,
    make_pl_two_break,
    make_pq_two_break,
    make_rotation,
    map_stats,
    retreat,
    step_with_winding,
)
from circlebreak.numerics import (
    BREAK_CLEARANCE_EPS,
    CLAMP_FROM,
    MACHINE_EPS,
    arc_length,
    to_circle,
)
from circlebreak.singularity import ExperimentConfig

from conftest import GOLDEN, _reference_one_sided_derivatives, quadruple_from_gaps


def test_rotation_evaluate():
    m = make_rotation(0.25)
    assert evaluate(m, 0.9) == pytest.approx(1.15, abs=0)
    assert to_circle(evaluate(m, 0.9)) == pytest.approx(0.15, abs=1e-16)


def test_pl_lift_continuous_at_breaks():
    m = make_pl_two_break(0.3, 0.7, 2.0)
    for b in m.breaks:
        lo = evaluate(m, b.location - 1e-12)
        hi = evaluate(m, b.location + 1e-12)
        assert abs(hi - lo) < 1e-11


def test_pq_degree_one_at_origin():
    m = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    assert evaluate(m, 1.0) - evaluate(m, 0.0) == 1.0


@given(st.floats(min_value=-3.0, max_value=3.0, allow_nan=False))
def test_degree_one_everywhere(x):
    m = make_pq_two_break(0.2, 0.6, 2.0, 0.8, translation=0.37)
    assert abs(evaluate(m, x + 1.0) - evaluate(m, x) - 1.0) < 1e-13


def test_one_sided_derivatives():
    rot = make_rotation(0.3)
    assert _reference_one_sided_derivatives(rot, 0.5) == (1.0, 1.0)

    pq = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    dm, dp = _reference_one_sided_derivatives(pq, 0.2)
    assert dm / dp == pytest.approx(2.0, abs=1e-14)
    dm, dp = _reference_one_sided_derivatives(pq, 0.6)
    assert dm / dp == pytest.approx(0.8, abs=1e-14)

    pl = make_pl_two_break(0.3, 0.7, 2.0)
    dm, dp = _reference_one_sided_derivatives(pl, 0.5)
    assert dm == dp  # interior of the (a, c) arc: one active slope


def test_iterate_rotation_exact():
    rho = 0.3819660112501051
    m = make_rotation(rho)
    orb = iterate(m, 0.0, 3)
    assert orb == [0.0, to_circle(rho), to_circle(2 * rho), to_circle(3 * rho)]


def test_iterate_roundtrip():
    m = make_pq_two_break(0.2, 0.6, 2.0, 0.8, translation=0.61)
    fwd = iterate(m, 0.123, 1000)
    back, _ = retreat(m, to_circle(fwd[-1]), 0, 1000)
    assert abs(back - 0.123) < 1e-10


def test_orbit_order_matches_rotation(pq_map, gcf):
    # Conjugacy preserves circular order only, so compare the cyclic
    # sequences anchored at the base point.
    def cyclic_order(points):
        perm = sorted(range(len(points)), key=points.__getitem__)
        i = perm.index(0)
        return perm[i:] + perm[:i]

    orb = iterate(pq_map, 0.05, 12)
    ref = [to_circle(0.05 + i * gcf.value) for i in range(13)]
    assert cyclic_order(orb) == cyclic_order(ref)


def test_iterate_cap(monkeypatch):
    monkeypatch.setattr(numerics, "ORBIT_CAP", 50)
    m = make_rotation(GOLDEN)
    with pytest.raises(PrecisionBudgetExceeded):
        iterate(m, 0.0, 100)


def test_iterate_refuses_a_negative_length():
    with pytest.raises(ValueError, match="n must be non-negative"):
        iterate(make_rotation(GOLDEN), 0.0, -1)


def test_step_clamps_to_next_turn():
    # f(0) = -1e-20: the fractional part rounds up to 1.0, which is the
    # origin of the next turn, so the point is 0 and the winding stays 0
    m = make_rotation(-1e-20)
    assert step_with_winding(m, 0.0, 0) == (0.0, 0)
    assert iterate(m, 0.0, 1)[1] == step_with_winding(m, 0.0, 0)[0]


def test_step_winding_reassembles_lift(pq_map):
    # the windings count whole turns: x_n + w_n stays within rounding of
    # the lift f^n(x0) evaluated on the real line
    x, w = 0.05, 0
    lift = 0.05
    for _ in range(200):
        x, w = step_with_winding(pq_map, x, w)
        lift = evaluate(pq_map, lift)
        assert 0.0 <= x < 1.0
        assert abs((x + w) - lift) < 1e-12
    assert iterate(pq_map, 0.05, 200)[-1] == x


def _reference_step(m, x, w):
    # reference step: evaluate, then the to_circle reduction with its winding
    y = evaluate(m, x)
    k = math.floor(y)
    xr = y - k
    if 1 - xr <= 2 * MACHINE_EPS:
        return 0.0, w + k + 1
    return xr, w + k


def _reference_invert(m, y):
    """Exact preimage of the lift value y by the per-segment quadratic
    solve: the reference for each step of ``retreat``."""
    if not m.breaks:
        return y - m.translation
    yb = y - m.translation
    v0 = m.seg_val[0]
    k = math.floor(yb - v0)
    w = yb - k
    if w < v0:
        w += 1
        k -= 1
    elif w >= v0 + 1:
        w -= 1
        k += 1
    s = 0 if w < m.seg_val[1] else 1
    dv = w - m.seg_val[s]
    d0 = m.seg_d0[s]
    cv = m.seg_curv[s]
    if cv == 0:
        du = dv / d0
    else:
        # stable root of (cv/2) du^2 + d0 du = dv; the discriminant is the
        # squared derivative at the preimage, hence non-negative
        disc = d0 * d0 + 2 * cv * dv
        if disc < 0:
            disc = 0.0
        du = 2 * dv / (d0 + math.sqrt(disc))
    return m.seg_pos[s] + du + k


# pq and pl maps (one each with c < a, so its segments start at c, and
# translations beyond a full turn either way), rotations both ways, and a
# rotation whose first step clamps
KERNEL_MAPS = [
    make_pq_two_break(0.2, 0.6, 2.0, 0.8, translation=0.6949140919153628),
    make_pq_two_break(0.7, 0.1, 1.5, 0.6, translation=-3.35),
    make_pl_two_break(0.2, 0.6, 3.0, translation=0.476690110107449),
    make_pl_two_break(0.45, 0.05, 0.4, translation=5.2),
    make_rotation(GOLDEN),
    make_rotation(-GOLDEN - 2),
    make_rotation(-1e-20),
]


def _assert_kernel_matches_reference(m, x, w, n=60):
    pts = []
    last = advance(m, x, w, n, pts)
    winds = [advance(m, x, w, k)[1] for k in range(1, n + 1)]
    ref_pts, ref_winds = [], []
    for _ in range(n):
        x, w = _reference_step(m, x, w)
        ref_pts.append(x)
        ref_winds.append(w)
    # compared bit for bit: == would take -0.0 for 0.0
    assert list(map(float.hex, pts)) == list(map(float.hex, ref_pts))
    assert winds == ref_winds and all(type(k) is int for k in winds)
    assert last == (ref_pts[-1], ref_winds[-1])
    assert advance(m, pts[0], winds[0], 0) == (pts[0], winds[0])


@given(
    st.sampled_from(KERNEL_MAPS),
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.integers(min_value=-3, max_value=3),
)
def test_advance_matches_reference_step(m, x, w):
    _assert_kernel_matches_reference(m, x, w)


def _ulps_around(x, k=2):
    """x and its k float neighbours on either side."""
    out = [x]
    lo = hi = x
    for _ in range(k):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def test_advance_matches_reference_at_edges():
    below_one = [1 - MACHINE_EPS / 2, 1 - MACHINE_EPS, 1 - 2 * MACHINE_EPS]
    clamped = 0
    for m in KERNEL_MAPS:
        starts = [0.0, -0.0, *below_one]
        for p in m.seg_pos[:2]:
            starts += [p, math.nextafter(p, 0.0), math.nextafter(p, 1.0)]
        if m.seg_pos:
            # ulp neighbours of the preimage of 1 land within 2 eps of it
            x = to_circle(_reference_invert(m, 1.0))
            for _ in range(40):
                starts.append(x)
                x = math.nextafter(x, 0.0)
        for x in starts:
            _assert_kernel_matches_reference(m, x, 0)
            y = evaluate(m, x)
            clamped += 1 - (y - math.floor(y)) <= 2 * MACHINE_EPS
    assert clamped > 0


@pytest.mark.parametrize(
    "t, error", [(math.inf, OverflowError), (-math.inf, OverflowError), (math.nan, ValueError)]
)
def test_advance_refuses_a_non_finite_translation(t, error):
    # the first step raises, as floor(f(x)) does, before any point is kept
    for m in (make_rotation(t), make_pq_two_break(0.2, 0.6, 2.0, 0.8, t)):
        pts = []
        with pytest.raises(error):
            advance(m, 0.3, 0, 3, pts)
        assert pts == []
        assert advance(m, 0.3, 0, 0) == (0.3, 0)
        with pytest.raises(error):
            retreat(m, 0.3, 0, 3, pts)
        assert pts == []
        assert retreat(m, 0.3, 0, 0) == (0.3, 0)


@pytest.mark.parametrize("x", [-3.0, 1.0, math.nextafter(1.0, 2.0)])
def test_orbit_loops_refuse_a_start_off_the_circle(x):
    for m in KERNEL_MAPS:
        for loop in (advance, retreat):
            for n in (0, 1):
                with pytest.raises(ValueError, match="not a circle point"):
                    loop(m, x, 0, n)


def _reference_retreat(m, x, w, n):
    """Reference backward orbit: each exact preimage reduced as to_circle
    reduces it, with floor's winding."""
    pts, winds = [], []
    for _ in range(n):
        y = _reference_invert(m, x)
        k = math.floor(y)
        x = y - k
        if x >= CLAMP_FROM:
            x = 0.0
            k += 1
        w += k
        pts.append(x)
        winds.append(w)
    return pts, winds


# the kernel maps, a rotation whose first backward step clamps, and a pq map
# whose translation lets x - t - v0 reach a third turn offset near x = 1
RETREAT_MAPS = KERNEL_MAPS + [
    make_rotation(1e-20),
    make_pq_two_break(0.7, 0.1, 1.5, 0.6, translation=-1.9990654205607474),
]


def _assert_retreat_matches_reference(m, x, n):
    pts = []
    last = retreat(m, x, 0, n, pts)
    ref_pts, ref_winds = _reference_retreat(m, x, 0, n)
    # compared bit for bit: == would take -0.0 for 0.0
    assert list(map(float.hex, pts)) == list(map(float.hex, ref_pts))
    assert last == (ref_pts[-1], ref_winds[-1]) and type(last[1]) is int
    # each single step from a reference pair gives the next winding
    pairs = zip([x] + ref_pts[:-1], [0] + ref_winds[:-1])
    assert [retreat(m, p, w, 1)[1] for p, w in pairs] == ref_winds


def test_retreat_matches_reference_loop():
    # seeded starts, and the images of the segment starts with their ulp
    # neighbours: there x - t sits on a segment start in value space
    rng = random.Random(29)
    seeded = [rng.random() for _ in range(1000)]
    for m in RETREAT_MAPS:
        edges = [y for p in m.seg_pos[:2] for y in _ulps_around(to_circle(evaluate(m, p)))]
        # a rotation by -1e-20 maps its segment start to 0, whose lower ulp
        # neighbour is no circle point
        edges = [y for y in edges if 0.0 <= y < 1.0]
        for x in seeded + edges:
            _assert_retreat_matches_reference(m, x, 20)


def test_retreat_matches_reference_at_edges():
    clamped = offsets = 0
    for m in RETREAT_MAPS:
        starts = [0.0, -0.0, 1 - MACHINE_EPS, math.nextafter(1.0, 0.0)]
        starts += [b.location for b in m.breaks]
        # ulp neighbours of the image of 0 have preimages within 2 eps
        # below a whole turn
        y = to_circle(evaluate(m, 0.0))
        for _ in range(40):
            starts += [y, math.nextafter(y, 1.0)]
            y = math.nextafter(y, 0.0)
        for x in starts:
            _assert_retreat_matches_reference(m, x, 400)
            y0 = _reference_invert(m, x)
            clamped += 1 - (y0 - math.floor(y0)) <= 2 * MACHINE_EPS
            if m.seg_val:
                v0 = m.seg_val[0]
                offsets += math.floor(x - m.translation - v0) == math.floor(
                    0.0 - m.translation - v0
                ) + 2
    assert clamped > 0 and offsets > 0


def test_retreat_winding_reassembles_lift(pq_map):
    # x_n + w_n stays within rounding of the lift preimage f^-n(x0 + w0)
    # inverted on the real line
    x, w = 0.05, 2
    lift = 2.05
    for _ in range(200):
        x, w = retreat(pq_map, x, w, 1)
        lift = _reference_invert(pq_map, lift)
        assert 0.0 <= x < 1.0
        assert abs((x + w) - lift) < 1e-12
    assert retreat(pq_map, 0.05, 2, 200) == (x, w)
    assert retreat(pq_map, x, w, 0) == (x, w)


def test_iterate_is_the_capped_list_form(pq_map):
    for x0 in (0.05, 1.3, -0.2):
        pts = []
        advance(pq_map, to_circle(x0), 0, 50, pts)
        assert iterate(pq_map, x0, 50) == [to_circle(x0)] + pts


def test_no_module_keeps_an_orbit_list_for_one_point():
    # a caller that wants an endpoint reads it off advance or retreat;
    # indexing an iterate(...) result builds a list only to drop it
    pkg = Path(__file__).resolve().parent.parent / "src" / "circlebreak"
    found = []
    for path in sorted(pkg.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Call)):
                continue
            func = node.value.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "iterate":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _names_read(tree):
    """Each name, attribute and imported alias under ``tree``, once per
    occurrence."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_every_helper_is_used_by_the_program():
    # each top-level def, class and assigned name of the package, and each
    # non-dunder function of a class body in it, is named somewhere in
    # src/, scripts/ or perfbench/ outside its own definition: as a name,
    # an attribute, an imported alias, or a string of the benchmark's
    # SPANS/COUNTED tables.  A re-export in __init__.py is not a use, and
    # __init__.py imports nothing.  Each name a package module imports is
    # read in that module.
    root = Path(__file__).resolve().parent.parent
    pkg = root / "src" / "circlebreak"
    init = ast.parse((pkg / "__init__.py").read_text())
    assert [n.lineno for n in ast.walk(init) if isinstance(n, (ast.Import, ast.ImportFrom))] == []
    defined, used = [], set()
    methods, reads = [], Counter()
    unread_imports = []
    files = [p for p in sorted(pkg.glob("*.py")) if p.name != "__init__.py"]
    for path in files + sorted((root / "scripts").glob("*.py")) + sorted(
        (root / "perfbench").glob("*.py")
    ):
        tree = ast.parse(path.read_text())
        reads.update(_names_read(tree))
        if path.parent == pkg:
            methods += [
                (f"{path.name}:{cls.name}.{fn.name}", fn)
                for cls in ast.walk(tree)
                if isinstance(cls, ast.ClassDef)
                for fn in cls.body
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (fn.name.startswith("__") and fn.name.endswith("__"))
            ]
            loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            unread_imports += [
                f"{path.name}:{node.lineno} {bound}"
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names
                for bound in [alias.asname or alias.name.partition(".")[0]]
                if bound not in loaded
            ]
        for top in tree.body:
            own = set()
            if path.parent == pkg and isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                own = {
                    n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)
                }
            elif path.parent == pkg and hasattr(top, "name"):
                own = {top.name}
            defined.extend(sorted(own))
            if isinstance(top, ast.Assign) and any(
                getattr(t, "id", None) in ("SPANS", "COUNTED") for t in top.targets
            ):
                spans = [attr for _, attr in ast.literal_eval(top.value)]
                used.update(spans)
                reads.update(spans)
            used.update(set(_names_read(top)) - own)
    assert len(defined) > 100
    assert sorted(set(defined) - used) == []
    # a method's reads inside its own body (recursion) are no use
    assert len(methods) > 10
    assert [
        where for where, fn in methods if reads[fn.name] <= list(_names_read(fn)).count(fn.name)
    ] == []
    assert unread_imports == []


def test_map_kinds_name_their_builders_parameters():
    # a row's names are its builder's parameters before translation, in
    # order, and each is a float field of ExperimentConfig, from which
    # the singularity command builds its map
    fields = get_type_hints(ExperimentConfig)
    for kind, (build, names) in MAP_KINDS.items():
        assert list(inspect.signature(build).parameters) == [*names, "translation"], kind
        assert [fields.get(name) for name in names] == [float] * len(names), kind


@pytest.mark.parametrize("name", ["pq_map", "pl_map"])
def test_clears_breaks_at_the_clearance_bounds(request, name):
    # points at loc +- clearance, at 1 - clearance and left of a break (a
    # negative raw arc p - loc), each with its ulp neighbours, against the
    # arc_length form of the test
    m = request.getfixturevalue(name)
    clearance = BREAK_CLEARANCE_EPS * MACHINE_EPS
    far = 1 - clearance
    for b in m.breaks:
        loc = b.location
        centres = [loc + clearance, loc - clearance, far, loc, loc - 0.3, 0.0]
        pts = [to_circle(p) for c in centres for p in _ulps_around(c, 3)]
        pts += [math.nextafter(1.0, 0.0)]
        seen = set()
        for p in pts:
            want = all(
                clearance < arc_length(brk.location, p) < far for brk in m.breaks
            )
            assert clears_breaks(m, [p]) == want, (loc, p)
            seen.add(want)
        assert seen == {True, False}
        assert not clears_breaks(m, pts)
        # both sides of loc + clearance and of loc - clearance show up
        near = [p for c in centres[:2] for p in _ulps_around(c, 3)]
        arcs = [arc_length(loc, p) for p in near]
        assert min(arcs) < clearance < max(a for a in arcs if a < 0.5)
        assert min(a for a in arcs if a > 0.5) < far < max(arcs)


# the loops whose every operand must stay a float, by module
FLOAT_LOOPS = {
    "maps.py": ("advance", "retreat", "clears_breaks", "df_product"),
}


def _int_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _int_operands_in_loops(func):
    """(line, kind) of every int literal that is an operand of a BinOp,
    AugAssign or Compare, or the value of an Assign, inside a for loop."""
    found = []
    for loop in ast.walk(func):
        if not isinstance(loop, ast.For):
            continue
        for stmt in loop.body + loop.orelse:
            for node in ast.walk(stmt):
                if isinstance(node, ast.BinOp):
                    operands = [node.left, node.right]
                elif isinstance(node, (ast.AugAssign, ast.Assign)):
                    operands = [node.value]
                elif isinstance(node, ast.Compare):
                    operands = [node.left, *node.comparators]
                else:
                    continue
                if any(map(_int_literal, operands)):
                    found.append((node.lineno, type(node).__name__))
    return found


def test_int_operand_guard_flags_mixed_arithmetic():
    src = (
        "def f(xs):\n"
        "    for x in xs:\n"
        "        a = 1 - x\n"
        "        x += 1\n"
        "        j = -1\n"
        "        if x < 0:\n"
        "            b = x + 1.0\n"
    )
    kinds = [kind for _, kind in _int_operands_in_loops(ast.parse(src))]
    assert kinds == ["BinOp", "AugAssign", "Assign", "Compare"]


def test_orbit_loops_keep_every_operand_a_float():
    # CPython 3.11 specialises float + - * only when both operands are
    # floats; one int literal in these loops sends every step through the
    # generic path and an int-to-float conversion, with every test passing
    pkg = Path(__file__).resolve().parent.parent / "src" / "circlebreak"
    found, loops = [], 0
    for module, names in FLOAT_LOOPS.items():
        tree = ast.parse((pkg / module).read_text())
        funcs = [
            node
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in names
        ]
        assert sorted(f.name for f in funcs) == sorted(names)
        for func in funcs:
            loops += sum(isinstance(node, ast.For) for node in ast.walk(func))
            found += [(module, func.name, *hit) for hit in _int_operands_in_loops(func)]
    assert loops == 5
    assert found == []


def test_pl_slopes_closed_form():
    m = make_pl_two_break(0.0, 0.5, 2.0)
    dm, dp = _reference_one_sided_derivatives(m, 0.25)
    assert dm == pytest.approx(4.0 / 3.0, abs=1e-15)
    dm, dp = _reference_one_sided_derivatives(m, 0.75)
    assert dm == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_pl_rejects_slope_ratio_one():
    with pytest.raises(InvalidGeometry):
        make_pl_two_break(0.3, 0.7, 1.0)


def test_pl_rejects_a_slope_ratio_that_is_not_positive():
    for ratio in (0.0, -2.0, math.nan):
        with pytest.raises(InvalidGeometry, match="slope ratio must be positive"):
            make_pl_two_break(0.3, 0.7, ratio)


def test_maps_refuse_derivatives_that_overflow():
    # an infinite ratio leaves the other arc's derivative 0
    with pytest.raises(InfeasibleDerivatives, match="non-positive one-sided derivative"):
        make_pq_two_break(0.2, 0.6, math.inf, 0.8)
    with pytest.raises(InfeasibleDerivatives, match="non-positive one-sided derivative"):
        make_pl_two_break(0.2, 0.6, math.inf)
    # on an arc one subnormal step long, Df_-(c) = sigma_c * Df_+(c)
    # overflows, and so does the integral of the profile
    with pytest.raises(InfeasibleDerivatives, match="derivative profile integrates to inf"):
        make_pq_two_break(0.0, 5e-324, 1e-300, 1e308)


def test_pl_jump_product_cancels():
    rng = random.Random(11)
    for _ in range(20):
        a, c = rng.random(), rng.random()
        if abs(a - c) < 1e-3:
            continue
        r = math.exp(rng.uniform(-1.5, 1.5))
        if abs(r - 1) < 1e-3:
            continue
        m = make_pl_two_break(a, c, r)
        prod = m.breaks[0].sigma * m.breaks[1].sigma
        assert prod == pytest.approx(1.0, abs=1e-14)


def test_pq_rejects_degenerate():
    with pytest.raises(InvalidGeometry):
        make_pq_two_break(0.2, 0.6, 1.0, 1.0)
    with pytest.raises(InvalidGeometry):
        make_pq_two_break(0.2, 0.2, 2.0, 0.8)
    with pytest.raises((InvalidGeometry, InfeasibleDerivatives)):
        make_pq_two_break(0.2, 0.6, -2.0, 0.8)
    with pytest.raises(InvalidGeometry, match="needs both jump ratios != 1"):
        make_pq_two_break(0.2, 0.6, 2.0, 1.0)
    with pytest.raises(InvalidGeometry, match="jump ratios must be positive"):
        make_pq_two_break(0.2, 0.6, 2.0, math.nan)


def test_breaks_apart_only_before_reduction_coincide():
    # 1.2 reduces to the float just below 0.2, and so does nextafter; the
    # arc from 0.2 to it rounds to a full turn, which reduces to 0
    with pytest.raises(InvalidGeometry, match="break points coincide"):
        make_pq_two_break(0.2, 1.2, 2.0, 0.8)
    with pytest.raises(InvalidGeometry, match="break points coincide"):
        make_pl_two_break(0.2, math.nextafter(0.2, 0), 2.0)


def test_pq_stats():
    m = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    stats = map_stats(m)
    assert stats.sigma_product == pytest.approx(1.6, abs=1e-14)
    # Df is monotone on each arc, so the smooth variation equals the jump
    # sizes again and v doubles them.
    v_expected = 2 * (abs(math.log(2.0)) + abs(math.log(0.8)))
    assert stats.v == pytest.approx(v_expected, abs=1e-12)
    assert stats.lam == pytest.approx((1 + math.exp(-stats.v)) ** -0.5, abs=1e-14)


def test_rotation_stats():
    stats = map_stats(make_rotation(GOLDEN))
    assert stats.v == 0.0
    assert stats.lam == pytest.approx(0.7071067811865476, abs=1e-15)
    assert stats.sigma_product == 1.0


def test_pl_stats():
    stats = map_stats(make_pl_two_break(0.3, 0.7, 2.0))
    assert stats.v == pytest.approx(2 * math.log(2.0), abs=1e-12)
    assert stats.sigma_product == pytest.approx(1.0, abs=1e-14)


def test_map_stats_reads_the_segment_table(monkeypatch):
    # the one-sided derivative values decide class P: a map is never
    # evaluated, and a non-positive value is refused
    import circlebreak.maps as maps

    def refuse(*args):
        raise AssertionError("map_stats evaluated the lift")

    monkeypatch.setattr(maps, "evaluate", refuse)
    m = make_pq_two_break(0.137, 0.771, 1.7, 0.6)
    stats = map_stats(m)
    assert stats.sigma_product == pytest.approx(1.7 * 0.6, rel=1e-14)
    bad = m._replace(seg_d0=(-m.seg_d0[0], m.seg_d0[1]))
    with pytest.raises(NotClassP):
        map_stats(bad)


@pytest.mark.parametrize(
    "m",
    [
        make_pq_two_break(0.2, 0.6, 2.0, 0.8),
        make_pl_two_break(0.3, 0.7, 2.0),
        make_rotation(GOLDEN),
    ],
    ids=["pq", "pl", "rotation"],
)
def test_map_stats_carries_the_segment_end_extremes(m):
    # Df is affine on each segment, so its extremes are one-sided values at
    # the segment ends, and D2f is each segment's constant
    stats = map_stats(m)
    ends = [d for x in m.seg_pos[:2] for d in _reference_one_sided_derivatives(m, x)]
    assert (stats.df_min, stats.df_max) == (min(ends), max(ends))
    assert stats.d2f_max == max(abs(c) for c in m.seg_curv)
    rng = random.Random(8)
    slack = 4 * MACHINE_EPS * stats.df_max
    for _ in range(500):
        for d in _reference_one_sided_derivatives(m, rng.uniform(-2, 3)):
            assert stats.df_min - slack <= d <= stats.df_max + slack


def test_translation_family():
    base = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    shifted = base.with_translation(0.7)
    for x in (0.0, 0.15, 0.2, 0.61, 0.93):
        assert evaluate(shifted, x) == evaluate(base, x) + 0.7
    assert shifted.breaks == base.breaks


def test_advance_retreat_roundtrip():
    m = make_pq_two_break(0.2, 0.6, 2.0, 0.8, translation=0.3)
    rng = random.Random(5)
    for _ in range(50):
        x, w = rng.random(), rng.randint(-2, 2)
        y, v = advance(m, x, w, 1)
        back, v = retreat(m, y, v, 1)
        assert back + v == pytest.approx(x + w, abs=1e-12)


def test_monotone_lift():
    m = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    rng = random.Random(2)
    xs = sorted(rng.uniform(0, 1) for _ in range(500))
    ys = [evaluate(m, x) for x in xs]
    assert all(b > a for a, b in zip(ys, ys[1:]))


@pytest.mark.parametrize("lo, hi", [(1.1, 1.3), (0.7, 1.3), (-0.9, -0.7), (-1.05, -0.53)])
def test_segment_walk_passes_a_rounded_segment_end(lo, hi):
    # 1.2 and -0.8 close segment 1 (p0 = 0.2), but reducing them rounds
    # back into it (1.2 - 1 < 0.2): a walk that re-reduced them stood still
    m = make_pq_two_break(0.2, 0.6, 2.0, 0.8)
    pieces = list(islice(_segment_walk(m, lo, hi), 8))
    assert pieces[0][1] == lo and pieces[-1][2] == hi
    assert all(x1 < x2 for _, x1, x2, _ in pieces)
    for (s, _, end, _), (s_next, start, _, _) in zip(pieces, pieces[1:]):
        assert start == end and s_next == 1 - s
    assert gap_image(m, lo, hi) == pytest.approx(
        evaluate(m, hi) - evaluate(m, lo), rel=1e-14
    )
    curv = m.seg_curv
    assert abs_d2f_integral(m, lo, hi) == pytest.approx(
        sum(abs(curv[s]) * (x2 - x1) for s, x1, x2, _ in pieces), rel=1e-15
    )


def _hexed(values):
    return [float.hex(v) if type(v) is float else v for v in values]


@pytest.mark.parametrize(
    "t", [1e-20, -1e-20, GOLDEN, -1.9990654205607474, 3.75, 1e15 + 0.5]
)
def test_rotation_table_is_the_rigid_rotation(t):
    # a rotation is two slope-1 segments: every kernel gives, bit for bit,
    # what the rigid rotation x + t gives in closed form
    m = make_rotation(t)
    rng = random.Random(34)
    starts = [0.0, *_ulps_around(0.5), math.nextafter(1.0, 0.0)]
    starts += [rng.random() for _ in range(200)]
    assert map_stats(m) == (0.0, 2**-0.5, 1.0, 1.0, 1.0, 0.0)
    back = m.with_translation(-t)
    for x in starts:
        for lift in (x, x - 3.0, x + 2.0):
            assert float.hex(evaluate(m, lift)) == float.hex(lift + t)
        pts, ref = [], []
        assert retreat(m, x, 1, 200, pts) == advance(back, x, 1, 200, ref)
        assert _hexed(pts) == _hexed(ref)
        lo = x + rng.randrange(-3, 4)
        for hi in (lo + h for h in (1e-12, 1e-6, 0.01, 0.3, 0.7)):
            assert float.hex(gap_image(m, lo, hi)) == float.hex(hi - lo)
            assert float.hex(abs_d2f_integral(m, lo, hi)) == float.hex(0.0)
        for steps in (1, 2, 89):
            assert float.hex(df_product(m, x, steps)) == float.hex(1.0)
    for _ in range(300):
        # gaps at scales 1e-9 to 0.2; half the hulls put a segment end, a
        # whole or half turn, inside their second gap
        scale = 10 ** rng.uniform(-9, math.log10(0.2))
        gaps = [scale * (0.25 + rng.random()) for _ in range(3)]
        if rng.random() < 0.5:
            z = rng.uniform(-3, 4)
        else:
            z = rng.randrange(-6, 8) / 2 - gaps[0] - gaps[1] / 2
        q = quadruple_from_gaps(z, *gaps)
        try:
            want = _hexed(_general_row(q, m))
        except CircleBreakError as e:
            want = (type(e), str(e))
        try:
            got = _hexed(distortion_rows((q,), m)[0])
        except CircleBreakError as e:
            got = (type(e), str(e))
        assert got == want, q
