"""Smoke tests for the scripts in scripts/, which no command imports."""

import os
import subprocess
import sys

import pytest

from conftest import ROOT, load_script


def test_gap_vs_rank_prints_every_rank():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "gap_vs_rank.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["n", "generic", "pq", "same-orbit", "pq", "rotation"]
    assert [int(r.split()[0]) for r in rows] == list(range(5, 13))


def test_digest_manifest_names_every_bundled_run():
    script = load_script("run_all_experiments")
    manifest = script.load_manifest()
    assert sorted(manifest) == sorted(label for label, _, _ in script.bundled_runs())
    for digest in manifest.values():
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_every_bundled_run_writes_its_committed_bytes(tmp_path, monkeypatch):
    # the runs go into tmp_path, not results/, as the script would write them
    script = load_script("run_all_experiments")
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    monkeypatch.setenv("PYTHONPATH", path)
    digests = {}
    for label, command, name in script.bundled_runs():
        config = os.path.join(ROOT, "configs", name)
        proc = script.run(command, config, str(tmp_path / label))
        assert proc.returncode == 0, proc.stderr
        digests[label] = script.artifacts_digest(proc.stdout.splitlines())
    assert digests == script.load_manifest()


def test_unreached_lines_traces_a_test_module(capsys):
    # one small module under the tracer: it runs every line of to_circle
    # and none of in_arc, and the trace functions that were set come back
    from circlebreak import numerics

    script = load_script("unreached_lines")
    exe = script.executable_lines()
    pkg = os.path.join(ROOT, "src", "circlebreak")
    assert sorted(exe) == sorted(
        os.path.join(pkg, name) for name in os.listdir(pkg) if name.endswith(".py")
    )
    before = sys.gettrace()
    with script.LineTracer() as tracer:
        module = os.path.join(ROOT, "tests", "test_numerics.py")
        code = pytest.main(["-q", "-p", "no:cacheprovider", module])
    assert code == 0
    assert sys.gettrace() is before
    path = os.path.join(pkg, "numerics.py")
    missed = set(script.unreached(exe, tracer.hits)[path])
    assert tracer.hits[path] <= exe[path]

    def body(fn):
        return {line for _, _, line in fn.__code__.co_lines()} - {fn.__code__.co_firstlineno}

    assert body(numerics.to_circle) <= tracer.hits[path]
    assert body(numerics.in_arc) <= missed

    # the gate: the child branch of cli._fork_block is exempt, found in the
    # source; every other unreached line fails the run
    cli_path = os.path.join(pkg, "cli.py")
    with open(cli_path) as fh:
        source = [line.strip() for line in fh]

    def lines_of(text):
        return {i for i, line in enumerate(source, 1) if line == text}

    exempt = script.exempt_lines(exe)
    assert list(exempt) == [cli_path]
    child = exempt[cli_path]
    # the child's first and last statements, read off the text
    (first,) = lines_of("code = 1")
    (last,) = lines_of("os._exit(code)")
    assert child == {line for line in exe[cli_path] if first <= line <= last}
    assert not (lines_of("if pid == 0:") | lines_of("os.close(w)")) & child
    capsys.readouterr()
    assert script.report(script.unreached(exe, tracer.hits), exempt) == 1
    printed = capsys.readouterr().out.splitlines()
    assert f"src/circlebreak/numerics.py {len(missed)}: " in "\n".join(printed)
    only_child = {path: sorted(child) if path == cli_path else [] for path in exe}
    assert script.report(only_child, exempt) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{len(child)} executable lines unreached",
        f"src/circlebreak/cli.py exempt {len(child)}: {' '.join(map(str, sorted(child)))}",
    ]
