#!/usr/bin/env python3
"""Print the executable lines of src/circlebreak that nothing reaches.

Two passes run in this one process under a line tracer, ``sys.settrace``
and ``threading.settrace`` over the frames of files in src/circlebreak:

* the 13 bundled runs of ``run_all_experiments.py``, through ``cli.main``,
  each writing into a temporary directory;
* the Tier-1 suite, through ``pytest.main``.

A line is executable when the ``co_lines()`` of some code object compiled
from its module names it.  The script prints how many executable lines
neither pass reached, then the count and the lines of each module that
has any.  The tracer slows the suite down about sevenfold: the whole
run took 4 min 0 s, 3 min 50 s of it the Tier-1 pass, with Python
3.11.7 on a 2-core machine.

Work done in a child that ``cli._fork_block`` forks is invisible here:
the child inherits the tracer, but what it records never comes back to
this process.  So the child branch of ``_fork_block`` always reads as
unreached; ``tests/test_denjoy_samples.py`` checks it through its
results.  Subprocesses that tests start are not traced either.

The script is a gate.  The body of ``if pid == 0:`` in ``_fork_block``,
found with ``ast`` in the source, is the one exempt region: its lines
are printed as exempt.  Any other unreached line makes the script exit
1, as does a bundled run or a test that fails.

Run it from anywhere, with pytest and hypothesis installed:

    python3 scripts/unreached_lines.py
"""

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PKG = os.path.join(SRC, "circlebreak")


def executable_lines() -> dict:
    """{module path: set of executable line numbers} for every module."""
    out = {}
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PKG, name)
        with open(path) as fh:
            stack = [compile(fh.read(), path, "exec")]
        lines = out[path] = set()
        while stack:
            code = stack.pop()
            lines.update(line for _, _, line in code.co_lines() if line is not None)
            stack += (c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


class LineTracer:
    """Records, while active, every line run in a file under src/circlebreak.

    ``hits`` maps a module path to the set of its lines that ran.  On
    exit the trace functions that were set before are put back, so a
    tracer can run inside another one's pass (the outer one misses what
    the inner one records).
    """

    def __init__(self):
        self.prefix = os.path.realpath(PKG) + os.sep
        self.hits = {}
        self._paths = {}  # co_filename -> module path, or None outside PKG

    def _module(self, filename):
        path = self._paths.get(filename, "")
        if path == "":
            real = os.path.realpath(filename)
            path = self._paths[filename] = real if real.startswith(self.prefix) else None
        return path

    def _call(self, frame, event, arg):
        path = self._module(frame.f_code.co_filename)
        if path is None:
            return None
        hits = self.hits.setdefault(path, set())
        hits.add(frame.f_lineno)

        def line(frame, event, arg):
            hits.add(frame.f_lineno)
            return line

        return line

    def __enter__(self):
        self._saved = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._saved[0])
        threading.settrace(self._saved[1])


def exempt_lines(exe: dict) -> dict:
    """{cli.py: executable lines of the ``if pid == 0:`` body of
    ``_fork_block``}, the child's branch, which runs only in a forked
    child.  Exits 1, naming what it looked for, when cli.py has no such
    branch."""
    path = os.path.join(PKG, "cli.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    fork = next(
        (
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_fork_block"
        ),
        None,
    )
    child = fork and next(
        (
            node
            for node in ast.walk(fork)
            if isinstance(node, ast.If) and ast.unparse(node.test) == "pid == 0"
        ),
        None,
    )
    if child is None:
        print(
            f"{path}: no `if pid == 0:` branch in _fork_block to exempt",
            file=sys.stderr,
        )
        raise SystemExit(1)
    body = range(child.body[0].lineno, child.body[-1].end_lineno + 1)
    return {path: exe[path].intersection(body)}


def report(missed: dict, exempt: dict) -> int:
    """Print the unreached lines of each module, those of ``exempt`` on a
    line of their own; return 1 if any unreached line is not exempt."""
    print(f"{sum(map(len, missed.values()))} executable lines unreached")
    code = 0
    for path, lines in missed.items():
        name = os.path.relpath(path, ROOT)
        free = exempt.get(path, set())
        gaps = [line for line in lines if line not in free]
        excused = [line for line in lines if line in free]
        if gaps:
            print(f"{name} {len(gaps)}: {' '.join(map(str, gaps))}")
            code = 1
        if excused:
            print(f"{name} exempt {len(excused)}: {' '.join(map(str, excused))}")
    return code


def unreached(exe: dict, *hit_maps) -> dict:
    """{module path: sorted executable lines in no hit map}."""
    return {
        path: sorted(lines.difference(*(h.get(path, ()) for h in hit_maps)))
        for path, lines in exe.items()
    }


def run_bundled() -> int:
    """Run each config that ``run_all_experiments.py`` runs through
    ``cli.main``, into a temporary directory; return how many runs exited
    non-zero."""
    from circlebreak import cli

    path = os.path.join(HERE, "run_all_experiments.py")
    spec = importlib.util.spec_from_file_location("run_all_experiments", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for label, command, name in script.bundled_runs():
            config = os.path.join(ROOT, "configs", name)
            argv = [command, "--config", config, "--out", os.path.join(tmp, label)]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                print(f"{label}: exit {code}", file=sys.stderr)
                failed += 1
    return failed


def main() -> int:
    sys.path.insert(0, SRC)
    exe = executable_lines()
    # tracing starts before the package is imported, so its module-level
    # lines count as reached
    with LineTracer() as bundled:
        failed = run_bundled()
    import pytest

    with LineTracer() as tier1:
        code = pytest.main(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    gate = report(unreached(exe, bundled.hits, tier1.hits), exempt_lines(exe))
    return 1 if failed or code != 0 else gate


if __name__ == "__main__":
    sys.exit(main())
