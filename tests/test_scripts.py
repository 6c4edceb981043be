"""Smoke tests for the scripts in scripts/, which no command imports."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    import importlib.util
    import json

    path = os.path.join(ROOT, "scripts", "run_all_experiments.py")
    spec = importlib.util.spec_from_file_location("run_all_experiments", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    labels = []
    for name, _, _ in script.EXPERIMENTS:
        with open(os.path.join(ROOT, "configs", name)) as fh:
            labels.append(json.load(fh)["label"])
    labels += [os.path.splitext(name)[0] for name, _ in script.OTHER_CONFIGS]
    manifest = script.load_manifest()
    assert sorted(manifest) == sorted(labels)
    for digest in manifest.values():
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
