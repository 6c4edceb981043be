"""Run one circlebreak CLI command with spans and counters around each layer.

Usage: python3 perfbench/trace_launcher.py TRACE_JSON -- CLI_ARGS...

Writes the summary to TRACE_JSON and every span, one JSON list
[name, start_ns, end_ns, parent] a line, to TRACE_JSON + ".spans".

The launcher imports ``circlebreak.cli`` from ``src/``, replaces the
public functions listed in ``SPANS`` and ``COUNTED`` at every module
binding that holds them (callers look them up there, e.g.
``circlebreak.singularity.rho_farey``), runs ``cli.main`` and writes the
trace as JSON. The program itself is not modified. A span records name,
start, end and parent; each span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (defining module, attribute) -> span name "<layer>.<what>".
SPANS = {
    ("cli", "main"): "cli.main",
    ("maps", "iterate"): "maps.iterate",
    ("maps", "map_stats"): "maps.stats",
    ("rotation", "rho_farey"): "rotation.rho_farey",
    ("rotation", "tune_translation"): "rotation.tune",
    ("singularity", "singularity_report"): "singularity.report",
    ("singularity", "solve_same_orbit"): "singularity.same_orbit",
    ("singularity", "regular_cover_triple"): "singularity.cover",
    ("singularity", "mass_length_curve"): "singularity.lorenz",
    ("partition", "build_partition"): "partition.build",
    ("partition", "denjoy_product"): "partition.denjoy",
    ("partition", "max_element_decay"): "partition.decay",
    ("partition", "check_refinement"): "partition.refinement",
    ("crossratio", "distortion_chain"): "crossratio.chain",
    ("crossratio", "chain_points"): "crossratio.chain",
    ("crossratio", "distortion"): "crossratio.distortion",
    ("crossratio", "smooth_distortion_bound"): "crossratio.bounds",
    ("crossratio", "single_break_closed_form"): "crossratio.bounds",
    ("crossratio", "calibrate_k1"): "crossratio.calibrate",
    ("crossratio", "calibrate_c1"): "crossratio.calibrate",
    ("measure", "conjugacy_values"): "measure.conjugacy",
    ("measure", "partition_masses"): "measure.masses",
}

# Hot functions that get a call counter but no span.
COUNTED = {("maps", "evaluate"): "maps.evaluate_calls"}


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent_index]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.cells = {}

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def active(self, name):
        return any(self.spans[i][0] == name for i in self.stack)

    def span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def counter(self, key, fn):
        """Count calls of a hot two-argument function such as evaluate(m, x)."""
        cell = self.cells.setdefault(key, [0])

        @functools.wraps(fn)
        def wrapper(m, x):
            cell[0] += 1
            return fn(m, x)

        return wrapper

    def summary(self):
        """Per-name inclusive time (outermost spans only), self time, calls."""
        for key, cell in self.cells.items():
            self.add(key, cell[0])
            cell[0] = 0
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        inclusive, self_ns, calls = {}, {}, {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                inclusive[name] = inclusive.get(name, 0) + dur
        return {
            "inclusive_ns": inclusive,
            "self_ns": self_ns,
            "calls": calls,
            "counts": dict(sorted(self.counts.items())),
        }


def _rebind(modules, original, replacement):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer):
    """Wrap every traced function at each circlebreak module binding."""
    import circlebreak.cli  # noqa: F401  (loads every layer)

    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "circlebreak"]

    def on_tune(args, kwargs, result):
        tracer.add("rotation.tune_bisections", result.bisections)
        if tracer.active("singularity.same_orbit"):
            tracer.add("singularity.same_orbit_tune_calls", 1)

    def on_build(args, kwargs, result):
        tracer.add("partition.cells", len(result.elements))

    def on_chain(args, kwargs, result):
        # chain_points(m, pts, steps): point-steps pushed along the chain.
        tracer.add("crossratio.chain_steps", len(args[1]) * args[2])

    def on_conjugacy(args, kwargs, result):
        tracer.add("measure.orbit_points", result.n_points)

    hooks = {
        ("rotation", "tune_translation"): on_tune,
        ("partition", "build_partition"): on_build,
        ("crossratio", "chain_points"): on_chain,
        ("measure", "conjugacy_values"): on_conjugacy,
    }
    for (mod_name, attr), key in COUNTED.items():
        original = getattr(sys.modules["circlebreak." + mod_name], attr)
        _rebind(modules, original, tracer.counter(key, original))
    for (mod_name, attr), name in SPANS.items():
        original = getattr(sys.modules["circlebreak." + mod_name], attr)
        wrapped = tracer.span(name, original, hooks.get((mod_name, attr)))
        _rebind(modules, original, wrapped)


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    trace_path, cli_args = argv[0], argv[2:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = Tracer()
    install(tracer)
    import circlebreak.cli as cli

    try:
        code = cli.main(cli_args)
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
        with open(trace_path + ".spans", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in tracer.spans)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
