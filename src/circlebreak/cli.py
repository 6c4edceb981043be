"""Configuration-driven command line front end.

Each subcommand reads one JSON config document, runs one experiment, and
writes CSV/JSON artifacts into the output directory.  Identical inputs
give byte-identical files: floats carry 17 significant digits, row and
key orderings are fixed, and nothing is timestamped.

Exit codes: 0 success, 2 malformed config, 3 evaluation budget
exhausted, 4 a machine-checked invariant failed, 5 any other failure
from this package.  All artifacts are staged before the first rename,
so a failing run leaves no partial outputs behind.
"""

from __future__ import annotations

import argparse
import json
import marshal
import math
import os
import random
import re
import statistics
import sys
import tempfile
from itertools import chain, repeat
from operator import truediv
from typing import get_type_hints

from .crossratio import Quadruple, distortion_rows
from .errors import (
    BreakCollision,
    CircleBreakError,
    ConfigError,
    InvariantFailure,
    PrecisionBudgetExceeded,
)
from .maps import make_pl_two_break, make_pq_two_break, make_rotation, map_stats
from .measure import conjugacy_values, mass_identity_residual, partition_masses
from .numerics import DEFAULT_ORBIT_CAP
from .partition import (
    build_partition,
    check_refinement,
    denjoy_product,
    max_element_decay,
    partition_rows,
)
from .rotation import (
    TUNE_TOL_FLOOR,
    ContinuedFraction,
    cf_expand_convergents,
    rho_farey,
    rho_iterate_estimate,
    tune_translation,
)
from .singularity import ExperimentConfig, ReportRow, singularity_report

SCHEMA = 1


def fmt(x) -> str:
    """Fixed 17-significant-digit rendering, round-trip safe in binary64."""
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if not math.isfinite(x):
        raise InvariantFailure(f"non-finite value {x!r} reached an output table")
    return format(x, ".17g")


# The stdlib json encoder hardcodes repr() for floats, so the fixed-width
# float contract needs its own (deterministic) walker.
def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(
            "  " * (indent + 1) + _json_text(v, indent + 1) for v in obj
        )
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            "  " * (indent + 1) + json.dumps(str(k)) + ": " + _json_text(v, indent + 1)
            for k, v in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    raise InvariantFailure(f"cannot serialize {type(obj).__name__} into a report")


# csv.writer's minimal quoting quotes a cell holding a delimiter, a quote
# or a line break; table strings are written verbatim, so none may hold one.
_CSV_QUOTED = re.compile(r'[",\r\n]')
_CELL_FORMATS = {int: "%d", float: "%.17g", str: "%s"}


def _row_format(kinds):
    """%-template of a CSV row whose cells have these types, with the
    positions of its float cells and of its string cells."""
    try:
        template = ",".join(_CELL_FORMATS[k] for k in kinds) + "\n"
    except KeyError as e:
        raise TypeError(f"no CSV format for a {e.args[0].__name__} cell") from None
    floats = [i for i, k in enumerate(kinds) if k is float]
    strs = [i for i, k in enumerate(kinds) if k is str]
    return template, floats, strs


# Lines per chunk of a table: chunks stay small beside the 46k-row tables
# of deep partitions, while writes and joins stay few.
CSV_CHUNK_LINES = 4096


def _csv_chunks(header, rows):
    """CSV text of a header and rows, in chunks of at most CSV_CHUNK_LINES
    lines, every cell as ``fmt`` renders it.

    Each row goes through one %-template picked by its cell types rather
    than ``fmt`` per cell: ints as ``str``, floats to 17 significant
    digits, strings verbatim.  The joined chunks are the bytes
    ``csv.writer`` writes, which would quote only a cell holding a
    delimiter, a quote or a line break, or a row of one empty cell; a
    string that needs quoting raises InvariantFailure, as does a
    non-finite float.  Rows are read lazily, so a table is never held
    whole as text.
    """
    isfinite = math.isfinite
    formats = {}
    lines = []
    for row in chain([header], rows):
        row = tuple(row)
        kinds = tuple(map(type, row))
        fm = formats.get(kinds)
        if fm is None:
            fm = formats[kinds] = _row_format(kinds)
        template, floats, strs = fm
        for i in floats:
            if not isfinite(row[i]):
                raise InvariantFailure(
                    f"non-finite value {row[i]!r} reached an output table"
                )
        for i in strs:
            if _CSV_QUOTED.search(row[i]) or row == ("",):
                raise InvariantFailure(f"table cell {row[i]!r} would need CSV quoting")
        lines.append(template % row)
        if len(lines) == CSV_CHUNK_LINES:
            yield "".join(lines)
            lines = []
    if lines:
        yield "".join(lines)


def _stage(outdir, artifacts, staged):
    """Write each artifact to a temporary file in ``outdir`` and add its
    (temporary, final path) pair to ``staged``, for the caller to rename
    or, if anything raises, to remove (``_unstage``).

    An artifact is a name and an iterable of text chunks, written as they
    come.
    """
    os.makedirs(outdir, exist_ok=True)
    for name, chunks in artifacts:
        fd, tmp = tempfile.mkstemp(dir=outdir, prefix=".stage-")
        staged.append((tmp, os.path.join(outdir, name)))
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(chunks)


def _unstage(staged):
    for tmp, _ in staged:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def _write_all(outdir, artifacts, staged=()):
    """Stage every artifact, then rename them and after them the pairs
    ``staged`` earlier (``_stage``); no partial output on failure.

    A chunk source that raises leaves no file of these artifacts behind
    either; those staged earlier are the caller's to remove.
    """
    pairs = []
    try:
        _stage(outdir, artifacts, pairs)
    except BaseException:
        _unstage(pairs)
        raise
    pairs += staged
    for tmp, final in pairs:
        os.replace(tmp, final)
    return [final for _, final in pairs]


# POSIX fixes SIGKILL's number; importing ``signal`` to name it would add
# about 1.5 ms (it builds enums) to every run.
_SIGKILL = 9


def _fork_block(fn, block, cpu):
    """Start a child that computes ``[fn(x) for x in block]`` pinned to
    ``cpu`` and writes the list to a pipe as marshal bytes.

    Returns (pid, the pipe's read end as a binary file), or None if no
    child could be started.  The child never returns into the caller: it leaves through
    ``os._exit``, with status 0 only once all its bytes are written.
    """
    try:
        r, w = os.pipe()
    except OSError:
        return None
    # the read end is opened before the fork, so that nothing that can
    # raise runs here once a child exists
    try:
        fh = open(r, "rb")
    except OSError:
        os.close(r)
        os.close(w)
        return None
    try:
        pid = os.fork()
    except OSError:
        fh.close()
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            fh.close()
            os.sched_setaffinity(0, {cpu})
            data = marshal.dumps([fn(x) for x in block])
            with open(w, "wb") as out:
                out.write(data)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, fh


def _spread_cpus(items):
    """The CPUs to spread work on ``items`` over: this process's affinity
    set in order, or none with one usable CPU, fewer than two items, or
    no ``fork`` or affinity control on the platform."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity control on this platform
        return []
    return cpus if len(cpus) > 1 and len(items) > 1 and hasattr(os, "fork") else []


def _pin(cpus):
    """Restrict this process to ``cpus``.  Where the system refuses (a
    seccomp profile may forbid the call), it goes on unpinned."""
    try:
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass


class _Blocks:
    """``[fn(x) for x in items]`` in contiguous blocks, one forked child
    each, pinned to ``cpus[1]``, ``cpus[2]``, ... (``_fork_block``); this
    process goes on pinned to ``cpus[0]`` until ``join`` or ``kill``.

    Unpinned, the scheduler tends to keep a child on its parent's CPU and
    the blocks gain nothing.  With fewer than two ``cpus`` the items form
    one block without a child.  ``join`` computes here each block without
    a child or whose child exits non-zero, so the first exception in item
    order is raised as the serial loop raises it; it and ``kill`` reap
    every child before they return or raise.  The CLI process starts no
    threads, so forking it is safe.
    """

    def __init__(self, fn, items, cpus):
        self.fn, self.cpus = fn, cpus
        k = min(len(cpus) - 1, len(items))
        if k < 1:
            self.blocks = [[items, None]]
            return
        cuts = [len(items) * i // k for i in range(k + 1)]
        # [block, (pid, read end) or None once reaped or if never started]
        self.blocks = []
        try:
            for cpu, lo, hi in zip(cpus[1:], cuts, cuts[1:]):
                block = items[lo:hi]
                self.blocks.append([block, _fork_block(fn, block, cpu)])
        except BaseException:
            self.kill()
            raise
        _pin(cpus[:1])

    def join(self):
        """The results in item order."""
        if self.cpus:
            _pin(self.cpus)
        out = []
        try:
            for entry in self.blocks:
                block, child = entry
                status = data = None
                if child is not None:
                    pid, fh = child
                    with fh:
                        data = fh.read()
                    status = os.waitpid(pid, 0)[1]
                    entry[1] = None
                out += marshal.loads(data) if status == 0 else list(map(self.fn, block))
        finally:
            self.kill()
        return out

    def kill(self):
        """Unpin this process; kill and reap every child not yet joined."""
        if self.cpus:
            _pin(self.cpus)
        for entry in self.blocks:
            if entry[1] is not None:
                pid, fh = entry[1]
                entry[1] = None
                fh.close()
                os.kill(pid, _SIGKILL)
                os.waitpid(pid, 0)


_MISSING = object()


def _finite(v, what):
    """A config number as a float.  json reads NaN, Infinity and integers
    past the float range; this test fails for each of them."""
    if not abs(v) <= sys.float_info.max:
        raise ConfigError(f"{what} must be finite, got {v!r}")
    return float(v)


class _Keys:
    """Tracked view of a config object; leftover keys are rejected."""

    def __init__(self, doc, where="config"):
        if not isinstance(doc, dict):
            raise ConfigError(f"{where} must be a JSON object")
        self._doc = dict(doc)
        self.where = where

    def take(self, key, default=_MISSING):
        if key in self._doc:
            return self._doc.pop(key)
        if default is _MISSING:
            raise ConfigError(f"{self.where} is missing required key {key!r}")
        return default

    def real(self, key, default=_MISSING):
        v = self.take(key, default)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{self.where} key {key!r} must be a number")
        return _finite(v, f"{self.where} key {key!r}")

    def integer(self, key, default=_MISSING, minimum=None):
        v = self.take(key, default)
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"{self.where} key {key!r} must be an integer")
        if minimum is not None and v < minimum:
            raise ConfigError(f"{self.where} key {key!r} must be >= {minimum}")
        return v

    def optional_integer(self, key, default=None):
        v = self.take(key, default)
        if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
            raise ConfigError(f"{self.where} key {key!r} must be an integer or null")
        return v

    def text(self, key, default=_MISSING):
        v = self.take(key, default)
        if not isinstance(v, str):
            raise ConfigError(f"{self.where} key {key!r} must be a string")
        return v

    def quotients(self, key, default=_MISSING):
        """A non-empty list of positive integers, as a tuple."""
        v = self.take(key, default)
        ok = (
            isinstance(v, list)
            and v
            and all(isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in v)
        )
        if not ok:
            raise ConfigError(
                f"{self.where} key {key!r} must be a non-empty list of "
                "positive integers"
            )
        return tuple(v)

    def flag(self, key, default=False):
        v = self.take(key, default)
        if not isinstance(v, bool):
            raise ConfigError(f"{self.where} key {key!r} must be true or false")
        return v

    def done(self):
        if self._doc:
            raise ConfigError(
                f"unknown {self.where} keys: {', '.join(sorted(self._doc))}"
            )


def _map_from_config(spec, forbid_translation=False, where="map"):
    k = _Keys(spec, where)
    kind = k.take("kind")
    if forbid_translation and "translation" in spec:
        raise ConfigError(
            "the tune command searches over the translation; remove it "
            "from the map spec"
        )

    def translation(default=_MISSING):
        # from 2**52 on, x + t keeps at most one fractional bit
        t = k.real("translation", default)
        if abs(t) >= 2.0**52:
            raise ConfigError(f"{where} key 'translation' must be below 2**52 in magnitude")
        return t

    if kind == "rotation":
        t = 0.0 if forbid_translation else translation()
        k.done()
        return make_rotation(t), kind
    if kind == "pq":
        a = k.real("a")
        c = k.real("c")
        sa = k.real("sigma_a")
        sc = k.real("sigma_c")
        t = translation(0.0)
        k.done()
        return make_pq_two_break(a, c, sa, sc, t), kind
    if kind == "pl":
        a = k.real("a")
        c = k.real("c")
        r = k.real("slope_ratio")
        t = translation(0.0)
        k.done()
        return make_pl_two_break(a, c, r, t), kind
    raise ConfigError(f"unknown map kind {kind!r}; expected rotation, pq, or pl")


def _cf_from_config(spec, where="rho"):
    """CF-prefix list or a decimal in (0,1), as a ContinuedFraction."""
    if isinstance(spec, dict):
        k = _Keys(spec, where)
        ks = k.quotients("cf")
        k.done()
        return ContinuedFraction.from_quotients(ks)
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        v = _finite(spec, where)
        if not 0 < v < 1:
            raise ConfigError(f"{where} must lie in (0, 1), got {v!r}")
        try:
            return cf_expand_convergents(v)
        except ValueError as e:
            raise ConfigError(f"{where} {v!r}: {e}") from e
    raise ConfigError(f"{where} must be a number or an object with a cf list")


def _enclosure(est, **extra):
    """A RotationEstimate's value and enclosure, then ``extra``, as a
    report object."""
    return {"value": est.value, "lower": est.lower, "upper": est.upper, **extra}


def cmd_rotnum(doc, outdir, seed):
    k = _Keys(doc)
    m, _ = _map_from_config(k.take("map"))
    depth = k.integer("depth", 40, minimum=1)
    estimate_n = k.integer("estimate_n", 10_000, minimum=0)
    cap = k.integer("cap", DEFAULT_ORBIT_CAP, minimum=1)
    k.done()

    est, cfr = rho_farey(m, depth=depth, cap=cap)
    it = rho_iterate_estimate(m, estimate_n, cap=cap) if estimate_n > 0 else None
    if it is not None and (it.upper < est.lower or est.upper < it.lower):
        raise InvariantFailure(
            "farey and iterated rotation estimates do not intersect: "
            f"[{est.lower}, {est.upper}] vs [{it.lower}, {it.upper}]"
        )

    table = []
    for n in range(1, cfr.depth + 1):
        p, q = cfr.convergents[n]
        table.append((n, cfr.quotients[n - 1], p, q, abs(est.value - p / q)))

    report = {
        "schema": SCHEMA,
        "command": "rotnum",
        "farey": _enclosure(est, width=est.width, rational=est.rational, depth=depth),
        "iterate": None if it is None else _enclosure(it, n=estimate_n),
        "quotients": list(cfr.quotients),
        "max_quotient": max(cfr.quotients) if cfr.quotients else None,
    }
    return _write_all(
        outdir,
        [
            ("rotnum.json", [_json_text(report) + "\n"]),
            ("cf_table.csv", _csv_chunks(["n", "k_n", "p_n", "q_n", "err"], table)),
        ],
    )


def cmd_tune(doc, outdir, seed):
    k = _Keys(doc)
    mspec = k.take("map")
    m, kind = _map_from_config(mspec, forbid_translation=True)
    target = _cf_from_config(k.take("target_rho"), "target_rho")
    tol = k.real("tol", 1e-10)
    cap = k.integer("cap", DEFAULT_ORBIT_CAP, minimum=1)
    k.done()
    if not tol >= TUNE_TOL_FLOOR:
        raise ConfigError(f"tol must be at least {TUNE_TOL_FLOOR:g}")
    try:
        target.bracket_within(tol)
    except ValueError as e:
        raise ConfigError(f"target_rho cannot certify tol: {e}") from e

    res = tune_translation(m, target, tol=tol, cap=cap)
    report = {
        "schema": SCHEMA,
        "command": "tune",
        "kind": kind,
        "target": target.value,
        "t_star": res.translation,
        "certified_tol": res.certified_tol,
        "bisections": res.bisections,
        "rho": _enclosure(res.rho),
    }
    return _write_all(outdir, [("tune.json", [_json_text(report) + "\n"])])


def _start_denjoy_samples(m, cf, n, cap, count, seed):
    """Start the Denjoy products of ``count`` random base points drawn
    from ``random.Random(seed)``, in children on the CPUs but the first
    (``_Blocks``), so the caller can work beside them, pinned to the
    first CPU.  Returns the blocks: ``join`` gives the products in draw
    order, ``kill`` ends them.

    A base point whose orbit collides with a break is not redrawn: it
    fails the run, and another ``--seed`` draws other points.
    """

    def sample(x):
        try:
            return denjoy_product(m, cf, x, n, cap=cap)
        except BreakCollision as e:
            raise InvariantFailure(
                f"the orbit of Denjoy base point {x!r}, drawn with --seed "
                f"{seed}, comes too close to a break; rerun with another --seed"
            ) from e

    rng = random.Random(seed)
    xs = [rng.random() for _ in range(count)]
    return _Blocks(sample, xs, _spread_cpus(xs))


def cmd_partition(doc, outdir, seed):
    k = _Keys(doc)
    m, _ = _map_from_config(k.take("map"))
    cf = _cf_from_config(k.take("rho"))
    x0 = k.real("x0", 0.05)
    n = k.integer("n", minimum=1)
    denjoy_samples = k.integer("denjoy_samples", 0, minimum=0)
    decay_n_max = k.integer("decay_n_max", 0, minimum=0)
    refinement = k.flag("refinement", False)
    cap = k.integer("cap", DEFAULT_ORBIT_CAP, minimum=1)
    k.done()
    if decay_n_max == 1:
        raise ConfigError("decay_n_max must be 0 (no fit) or at least 2")
    # refinement compares rank n with rank n + 1
    n_fine = n + 1 if refinement else n
    for key, rank in (("n", n_fine), ("decay_n_max", decay_n_max)):
        if rank > cf.depth:
            raise ConfigError(
                f"{key} reaches rank {rank}, which needs at least {rank} "
                f"rho quotients, have {cf.depth}"
            )

    # The Denjoy samples do not depend on the partition: they run in
    # children while this process builds, checks and stages the table.
    # Failures still surface in the order of a serial run: the build's,
    # then the samples', then those of the checks and the table.
    samples = _start_denjoy_samples(m, cf, n, cap, denjoy_samples, seed)
    staged = []
    try:
        # every rank is cut from one orbit, so all share one base point
        deep = build_partition(m, cf, x0, max(n_fine, decay_n_max), cap=cap)
        # a map outside class P fails here, before the samples, as it did serially
        stats = map_stats(m) if denjoy_samples > 0 else None
        try:
            part = deep.coarsen(cf, n)
            fit = rep = None
            if decay_n_max > 0:
                fit = max_element_decay(m, cf, deep.coarsen(cf, decay_n_max))
            if refinement:
                rep = check_refinement(part, deep.coarsen(cf, n + 1), cf)
            header = ["n", "rank_tag", "index", "left", "length"]
            table = _csv_chunks(header, partition_rows(part))
            _stage(outdir, [("partition.csv", table)], staged)
        except Exception:
            samples.join()
            raise
        prods = samples.join()
        summary = {
            "schema": SCHEMA,
            "command": "partition",
            "n": n,
            "q_n": part.q_n,
            "q_nm1": part.q_nm1,
            "elements": len(part.elements),
            "total_length": part.total_length(),
            "max_length": part.max_length(),
            "min_length": part.min_length(),
        }
        if stats is not None:
            summary["denjoy"] = {
                "samples": denjoy_samples,
                "n": n,
                "min": min(prods),
                "max": max(prods),
                "lower_bound": math.exp(-stats.v),
                "upper_bound": math.exp(stats.v),
                "v": stats.v,
            }
        if fit is not None:
            summary["decay"] = dict(
                fit._asdict(), margin=fit.margin, within_bound=fit.within_bound
            )
        if rep is not None:
            summary["refinement"] = {
                "k_next": rep.k_next,
                "expected_splits": rep.k_next + 1,
                "split_min": rep.k_next + 1,
                "split_max": rep.k_next + 1,
                "persisted": rep.persisted,
            }
        report = [_json_text(summary) + "\n"]
        return _write_all(outdir, [("partition.json", report)], staged)
    except BaseException:
        samples.kill()
        _unstage(staged)
        raise


def _config_quadruple(raw, where):
    ok = (
        isinstance(raw, list)
        and len(raw) == 4
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw)
    )
    if not ok:
        raise ConfigError(f"{where} must be a list of four numbers")
    zs = [_finite(v, where) for v in raw]
    try:
        q = Quadruple(*zs)
    except CircleBreakError as e:
        raise ConfigError(f"{where}: {e}") from e
    if not q.hull < 1:
        raise ConfigError(f"{where}: hull {q.hull!r} must be shorter than one turn")
    return q


def cmd_distortion(doc, outdir, seed):
    k = _Keys(doc)
    m, _ = _map_from_config(k.take("map"))
    quads_spec = k.take("quadruples", None)
    sample_spec = k.take("sample", None)
    k.done()

    quads = []
    if quads_spec is not None:
        if not isinstance(quads_spec, list):
            raise ConfigError("quadruples must be a list of 4-point lists")
        quads = [
            _config_quadruple(raw, f"quadruples[{i}]")
            for i, raw in enumerate(quads_spec)
        ]
    if sample_spec is not None:
        sk = _Keys(sample_spec, "sample")
        count = sk.integer("count")
        scale = sk.real("scale", 0.01)
        sk.done()
        if count < 1 or not 0 < scale <= 0.2:
            raise ConfigError("sample.count must be >= 1 and 0 < sample.scale <= 0.2")
        rand = random.Random(seed).random
        for _ in range(count):
            # three gaps of scale * [0.25, 1.25) added from z1 in turn
            z1 = rand()
            z2 = z1 + scale * (0.25 + rand())
            z3 = z2 + scale * (0.25 + rand())
            quads.append(Quadruple(z1, z2, z3, z3 + scale * (0.25 + rand())))
    if not quads:
        raise ConfigError("distortion needs a quadruples list or a sample block")

    rows = []
    closed_form_rows = 0
    max_residual = 0.0
    for q, r in zip(quads, distortion_rows(quads, m)):
        if r.closed_form:
            closed_form_rows += 1
            max_residual = max(max_residual, r.residual)
        checked = ("", "", "") if r.bound is None else (r.predicted, r.residual, r.bound)
        rows.append((q.z1, q.z2, q.z3, q.z4, r.cr, r.dist, *checked))

    report = {
        "schema": SCHEMA,
        "command": "distortion",
        "count": len(rows),
        "closed_form_rows": closed_form_rows,
        "max_closed_form_residual": max_residual if closed_form_rows else None,
    }
    return _write_all(
        outdir,
        [
            ("distortion.json", [_json_text(report) + "\n"]),
            (
                "distortion.csv",
                _csv_chunks(
                    ["z1", "z2", "z3", "z4", "Cr", "Dist", "predicted", "residual", "bound"],
                    rows,
                ),
            ),
        ],
    )


def cmd_measure(doc, outdir, seed):
    k = _Keys(doc)
    m, _ = _map_from_config(k.take("map"))
    cf = _cf_from_config(k.take("rho"))
    x0 = k.real("x0", 0.05)
    n = k.integer("n", minimum=1)
    points = k.integer("points", 2000)
    drift_tol = k.real("drift_tol", 1e-6)
    cap = k.integer("cap", DEFAULT_ORBIT_CAP, minimum=1)
    k.done()
    if n > cf.depth:
        raise ConfigError(f"rank {n} needs at least {n} rho quotients")
    # the measure orbit must cover the partition orbit it assigns masses to
    if points < cf.q(n) + cf.q(n - 1):
        raise ConfigError(
            f"points must be at least q_n + q_(n-1) = {cf.q(n) + cf.q(n - 1)}"
        )
    if not drift_tol > 0:
        raise ConfigError("drift_tol must be positive")

    # Orbit point i carries the conjugacy value {i rho}, so the phi drift
    # over ``points`` points is points times the enclosure width and must
    # stay under drift_tol.  The Farey descent stops at half that budget:
    # the factor 0.5 keeps conjugacy_values' drift check clear of rounding.
    # If the orbit cap runs out first, PrecisionBudgetExceeded propagates.
    est, _ = rho_farey(m, cap=cap, width=0.5 * drift_tol / points)
    part = build_partition(m, cf, x0, n, cap=cap)
    om = conjugacy_values(m, est, part, points, drift_tol=drift_tol, cap=cap)
    masses = partition_masses(om)
    el = part.elements

    rank_summary = {}
    for tag in (n - 1, n):
        rank = [x for t, x in zip(el.rank_tag, masses) if t == tag]
        rank_summary[str(tag)] = {
            "count": len(rank),
            "mass": statistics.median(rank),
            "spread": max(rank) - min(rank),
        }
    report = {
        "schema": SCHEMA,
        "command": "measure",
        "n": n,
        "points": points,
        "rho": _enclosure(est),
        "mass_sum": sum(masses),
        "ranks": rank_summary,
        "identity_residual": mass_identity_residual(cf, est.value, n),
    }
    return _write_all(
        outdir,
        [
            ("measure.json", [_json_text(report) + "\n"]),
            (
                "measure.csv",
                _csv_chunks(
                    ["n", "rank", "index", "length", "mass", "density"],
                    zip(
                        repeat(n),
                        el.rank_tag,
                        el.index,
                        el.length,
                        masses,
                        map(truediv, masses, el.length),
                    ),
                ),
            ),
        ],
    )


# ExperimentConfig field type -> the reader that checks it.
_FIELD_READERS = {
    str: _Keys.text,
    float: _Keys.real,
    int: _Keys.integer,
    int | None: _Keys.optional_integer,
    tuple: _Keys.quotients,
}

# Experiment keys a singularity config of each map kind never reads.
_UNREAD_KEYS = {
    "rotation": {"a", "c", "sigma_a", "sigma_c", "slope_ratio", "same_orbit_steps"},
    "pq": {"slope_ratio"},
    "pl": {"sigma_a", "sigma_c"},
}


def cmd_singularity(doc, outdir, seed):
    # keys left out keep the ExperimentConfig defaults
    k = _Keys(doc, "singularity config")
    types = get_type_hints(ExperimentConfig)
    kwargs = {
        name: _FIELD_READERS[types[name]](k, name)
        for name in ExperimentConfig._fields
        if name in doc or name not in ExperimentConfig._field_defaults
    }
    k.done()
    config = ExperimentConfig(**kwargs)
    # a null same_orbit_steps is the default, not a setting
    unread = {key for key in _UNREAD_KEYS[config.kind] if kwargs.get(key) is not None}
    if config.same_orbit_steps is not None and "c" in kwargs:
        # the same-orbit solve places c itself
        unread.add("c")
    if unread:
        raise ConfigError(
            f"a {config.kind} singularity config does not read "
            f"{', '.join(sorted(unread))}"
        )

    report = singularity_report(config)
    body = {"schema": SCHEMA, "command": "singularity", **report.to_json_dict()}
    # a null gf_gap is an empty cell
    rows = [r if r.gf_gap is not None else r._replace(gf_gap="") for r in report.rows]
    artifacts = [
        ("report.json", [_json_text(body) + "\n"]),
        ("rows.csv", _csv_chunks(ReportRow._fields, rows)),
    ]
    for curve in report.curves:
        artifacts.append(
            (
                f"lorenz_n{curve.n}.csv",
                _csv_chunks(["cum_length", "cum_mass"], curve.points),
            )
        )
    return _write_all(outdir, artifacts)


_COMMANDS = {
    "rotnum": cmd_rotnum,
    "tune": cmd_tune,
    "partition": cmd_partition,
    "distortion": cmd_distortion,
    "measure": cmd_measure,
    "singularity": cmd_singularity,
}


def _load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    return doc


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="circlebreak",
        description="Circle maps with break points: rotation numbers, "
        "dynamical partitions, cross-ratio distortion, invariant-measure "
        "experiments.",
    )
    ap.add_argument("command", choices=sorted(_COMMANDS))
    ap.add_argument("--config", required=True, help="path to the JSON config")
    ap.add_argument("--out", default=".", help="output directory")
    ap.add_argument(
        "--seed", type=int, default=0, help="seed for sampled base points"
    )
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        doc = _load_config(args.config)
        written = _COMMANDS[args.command](doc, args.out, args.seed)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except PrecisionBudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except InvariantFailure as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except CircleBreakError as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
