"""Smoke tests for the scripts in scripts/, which no command imports."""

import json
import os
import subprocess
import sys

from conftest import ROOT, load_run_all_experiments


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


def _bundled_runs(script):
    """(label, command, config name) of every run the script makes."""
    runs = []
    for name, _, _ in script.EXPERIMENTS:
        with open(os.path.join(ROOT, "configs", name)) as fh:
            runs.append((json.load(fh)["label"], "singularity", name))
    runs += [(os.path.splitext(name)[0], cmd, name) for name, cmd in script.OTHER_CONFIGS]
    return runs


def test_digest_manifest_names_every_bundled_run():
    script = load_run_all_experiments()
    manifest = script.load_manifest()
    assert sorted(manifest) == sorted(label for label, _, _ in _bundled_runs(script))
    for digest in manifest.values():
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")


def test_every_bundled_run_writes_its_committed_bytes(tmp_path, monkeypatch):
    # the runs go into tmp_path, not results/, as the script would write them
    script = load_run_all_experiments()
    src = os.path.join(ROOT, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    monkeypatch.setenv("PYTHONPATH", path)
    digests = {}
    for label, command, name in _bundled_runs(script):
        config = os.path.join(ROOT, "configs", name)
        proc = script.run(command, config, str(tmp_path / label))
        assert proc.returncode == 0, proc.stderr
        digests[label] = script.artifacts_digest(proc.stdout.splitlines())
    assert digests == script.load_manifest()
