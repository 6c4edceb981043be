"""Workload definitions: the operations of a pass, their checks, and theory.

An operation is one ``circlebreak`` CLI command with one config. Inputs
come from ``random.Random(seed)`` only, so a seed fixes the pass. Each
operation carries
  - ``check(outdir)``: invariants the benchmark computes itself; any
    problem it returns makes the operation count as failed;
  - ``theory(outdir)``: (statement, expected, got) triples for results a
    theorem predicts. A miss is reported, not counted as a failure.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import random
import sys
from dataclasses import dataclass
from typing import Callable

EPS = sys.float_info.epsilon
GOLDEN = [1] * 30
VERDICTS = ("SINGULAR_EVIDENCE", "AC_BASELINE", "INCONCLUSIVE")

# The five bundled experiments and what theory says about each.
EXPERIMENTS = (
    ("pq_main", "SINGULAR_EVIDENCE", "singular"),
    ("pq_same_orbit", "SINGULAR_EVIDENCE", "singular: jump product 1.6 != 1"),
    ("pl_generic", "SINGULAR_EVIDENCE", "singular (Herman)"),
    ("pl_herman", "AC_BASELINE", "AC: breaks on one orbit (Herman 1979)"),
    ("rotation_baseline", "AC_BASELINE", "AC"),
)


@dataclass
class Op:
    label: str
    command: str
    config: dict | str  # a config document, or the path of a shipped config
    nominal_s: float  # cost on the reference machine, used to size a pass
    check: Callable[[str], list]
    theory: Callable[[str], list] = lambda outdir: []
    seed: int = 0


def denominators(quotients):
    """q_0, q_1, ... of [0; k_1, k_2, ...] by q_{n+1} = k_{n+1} q_n + q_{n-1}."""
    qs, prev = [1], 0
    for k in quotients:
        qs.append(k * qs[-1] + prev)
        prev = qs[-2]
    return qs


def _json(outdir, name):
    with open(os.path.join(outdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def _rows(outdir, name):
    """Stream the rows of a CSV artifact; tables reach 46k rows."""
    with open(os.path.join(outdir, name), encoding="utf-8", newline="") as fh:
        yield from csv.DictReader(fh)


def _config_doc(config):
    if isinstance(config, dict):
        return config
    with open(config, encoding="utf-8") as fh:
        return json.load(fh)


# -- checks -----------------------------------------------------------------


def check_singularity(config):
    def check(outdir):
        doc = _config_doc(config)
        rep = _json(outdir, "report.json")
        qs = denominators(doc["rho_quotients"])
        want = list(range(doc.get("n_min", 5), doc.get("n_max", 12) + 1))
        problems = []
        if [r["n"] for r in rep["rows"]] != want:
            problems.append(f"rows cover ranks {[r['n'] for r in rep['rows']]}, want {want}")
        for r in rep["rows"]:
            if r["q_n"] != qs[r["n"]]:
                problems.append(f"rank {r['n']}: q_n {r['q_n']} != {qs[r['n']]}")
        if rep["verdict"] not in VERDICTS:
            problems.append(f"unknown verdict {rep['verdict']!r}")
        if sum(1 for _ in _rows(outdir, "rows.csv")) != len(want):
            problems.append("rows.csv length differs from the report")
        return problems

    return check


def theory_singularity(expected, statement):
    def theory(outdir):
        return [(statement, expected, _json(outdir, "report.json")["verdict"])]

    return theory


def check_partition(quotients, n, denjoy):
    qs = denominators(quotients)

    def check(outdir):
        rep = _json(outdir, "partition.json")
        lengths = [float(r["length"]) for r in _rows(outdir, "partition.csv")]
        q_n, q_nm1 = qs[n], qs[n - 1]
        problems = []
        if (rep["q_n"], rep["q_nm1"]) != (q_n, q_nm1):
            problems.append(f"q_n, q_n-1 = {rep['q_n']}, {rep['q_nm1']}, want {q_n}, {q_nm1}")
        if rep["elements"] != q_n + q_nm1 or len(lengths) != q_n + q_nm1:
            problems.append(f"{rep['elements']} cells in the report, {len(lengths)} in the "
                            f"table, want q_n + q_n-1 = {q_n + q_nm1}")
        total = math.fsum(lengths)
        if abs(total - 1) > q_n * 10 * EPS:
            problems.append(f"cell lengths sum to {total!r}")
        if denjoy:
            d = rep["denjoy"]
            lo, hi = math.exp(-d["v"]), math.exp(d["v"])
            if d["samples"] != denjoy or not lo <= d["min"] <= d["max"] <= hi:
                problems.append(f"Denjoy products [{d['min']}, {d['max']}] leave [{lo}, {hi}]")
        return problems

    return check


def theory_partition(outdir):
    decay = _json(outdir, "partition.json")["decay"]
    return [("max cell length decays at least at rate lambda", True, decay["within_bound"])]


def check_distortion(count):
    def check(outdir):
        rep = _json(outdir, "distortion.json")
        problems = []
        rows = 0
        for r in _rows(outdir, "distortion.csv"):
            rows += 1
            cr, dist = float(r["Cr"]), float(r["Dist"])
            if not (0 < cr < 1 and dist > 0 and math.isfinite(dist)):
                problems.append(f"bad row Cr={cr!r} Dist={dist!r}")
                break
        if rep["count"] != count or rows != count:
            problems.append(f"{rows} quadruples, want {count}")
        return problems

    return check


def theory_distortion(outdir):
    ok = all(float(r["residual"]) <= float(r["bound"])
             for r in _rows(outdir, "distortion.csv") if r["bound"])
    return [("one-step distortion within its closed-form or smooth bound", True, ok)]


# -- workloads --------------------------------------------------------------


def experiments(root, rng):
    """The five bundled singularity configs as shipped; seed-independent."""
    nominal = {"pq_main": 10.0, "pq_same_orbit": 18.5, "pl_generic": 5.3,
               "pl_herman": 20.4, "rotation_baseline": 2.2}
    ops = []
    for name, expected, statement in EXPERIMENTS:
        path = os.path.join(root, "configs", name + ".json")
        ops.append(Op(name, "singularity", path, nominal[name],
                      check_singularity(path), theory_singularity(expected, statement)))
    return ops


def deep_partition(root, rng):
    """Deep partitions and a large distortion sample on the pinned golden map."""
    with open(os.path.join(root, "configs", "partition_pq_golden.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)["map"]
    cycle = [("partition", 20, 3.3), ("partition", 21, 5.0), ("partition", 22, 8.0),
             ("distortion", 0, 1.5)]
    for command, n, nominal in itertools.cycle(cycle):
        seed = rng.randrange(2**31)
        if command == "partition":
            denjoy = 40
            doc = {"map": pinned, "rho": {"cf": GOLDEN}, "x0": rng.uniform(0.01, 0.99),
                   "n": n, "denjoy_samples": denjoy, "decay_n_max": 18, "refinement": True}
            yield Op(f"partition-n{n}", command, doc, nominal,
                     check_partition(GOLDEN, n, denjoy), theory_partition, seed)
        else:
            count = 20_000
            doc = {"map": pinned, "sample": {"count": count, "scale": rng.uniform(0.005, 0.02)}}
            yield Op("distortion", command, doc, nominal, check_distortion(count),
                     theory_distortion, seed)


WORKLOADS = {
    "experiments": experiments,
    "deep_partition": deep_partition,
}


def build(name, root, seed, seconds):
    """The operations of one pass.

    ``experiments`` is always its five configs. The seeded workloads take
    operations from their cycle until the nominal cost reaches ``seconds``.
    """
    ops = WORKLOADS[name](root, random.Random(seed))
    if isinstance(ops, list):
        return ops
    chosen = []
    while sum(op.nominal_s for op in chosen) < seconds:
        chosen.append(next(ops))
    return chosen
