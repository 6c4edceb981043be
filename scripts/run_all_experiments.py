#!/usr/bin/env python3
"""Run every bundled config and print the verdicts of the five experiments.

Each config in configs/ is executed through the command line front end,
so a finished run leaves the same artifacts a by-hand invocation would:
the five singularity experiments into results/<label>/, the other
bundled configs into results/<config name>/.  Each run prints its wall
time, its peak resident memory (the child's ru_maxrss, read by
``os.wait4``) and one SHA-256 over the artifacts it wrote (file names
sorted, each name followed by the file's bytes); comparing the digests
printed by two checkouts shows whether all their artifacts are
byte-identical.  Next to each digest it says whether the digest matches
the one committed for that run in ``artifact_digests.txt``.  The
experiments also print the verdict theory expects next to the one the
run reached.  The exit status reports failed runs only, not mismatches.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One `<label> <sha256>` line per bundled run: the artifact digests of the
# committed code.
MANIFEST = os.path.join(HERE, "artifact_digests.txt")

# Config, the verdict theory expects, and why (the ROADMAP truth table).
EXPERIMENTS = [
    ("pq_main.json", "SINGULAR_EVIDENCE", "singular"),
    ("pq_same_orbit.json", "SINGULAR_EVIDENCE", "singular: jump product 1.6 != 1"),
    ("pl_generic.json", "SINGULAR_EVIDENCE", "singular (Herman)"),
    ("pl_herman.json", "AC_BASELINE", "AC: breaks on one orbit (Herman 1979)"),
    ("rotation_baseline.json", "AC_BASELINE", "AC"),
]

# The other bundled configs and the command each one is written for.
OTHER_CONFIGS = [
    ("pq_main_short.json", "singularity"),
    ("measure_pq_golden.json", "measure"),
    ("partition_pq_golden.json", "partition"),
    ("partition_pq_deep.json", "partition"),
    ("rotnum_golden.json", "rotnum"),
    ("rotnum_third.json", "rotnum"),
    ("tune_pq_golden.json", "tune"),
    ("distortion_pq.json", "distortion"),
]


def bundled_runs():
    """(label, command, config name) of every run, in the order ``main``
    makes them."""
    import json

    runs = []
    for name, _, _ in EXPERIMENTS:
        with open(os.path.join(ROOT, "configs", name)) as fh:
            runs.append((json.load(fh)["label"], "singularity", name))
    runs += [(os.path.splitext(name)[0], cmd, name) for name, cmd in OTHER_CONFIGS]
    return runs


def artifacts_digest(paths) -> str:
    """SHA-256 over the named files, in sorted name order."""
    h = hashlib.sha256()
    for path in sorted(paths, key=os.path.basename):
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(f"{os.path.basename(path)}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def load_manifest() -> dict:
    """{label: sha256} read off the manifest's lines."""
    with open(MANIFEST) as fh:
        return dict(line.split() for line in fh if line.strip())


def print_digest(label, proc, manifest):
    """Print the digest of the artifacts ``proc`` wrote and whether it
    matches the manifest's digest for ``label``."""
    digest = artifacts_digest(proc.stdout.splitlines())
    want = manifest.get(label)
    if want is None:
        status = "not in manifest"
    elif want == digest:
        status = "matches manifest"
    else:
        status = f"differs from manifest {want}"
    print(f"   artifacts sha256 {digest} ({status})")


def run(command, config, outdir):
    """Run one CLI command; print its wall time and peak RSS; return the
    finished process."""
    cmd = [
        sys.executable,
        "-m",
        "circlebreak.cli",
        command,
        "--config",
        config,
        "--out",
        outdir,
    ]
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=out, stderr=err)
        # wait4 reaps the child and hands back its resource usage
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        proc = subprocess.CompletedProcess(
            cmd, child.returncode, out.read().decode(), err.read().decode()
        )
    # Linux reports ru_maxrss in KiB
    print(f"   wall {wall:.2f} s  peak rss {usage.ru_maxrss / 1024:.1f} MB")
    if proc.returncode != 0:
        print(f"   exit {proc.returncode}: {proc.stderr.strip()}")
    return proc


def main() -> int:
    import json

    manifest = load_manifest()
    failures = 0
    for name, expected, theory in EXPERIMENTS:
        config = os.path.join(ROOT, "configs", name)
        with open(config) as fh:
            label = json.load(fh)["label"]
        outdir = os.path.join(ROOT, "results", label)
        print(f"== {label}  expected {expected} ({theory})")
        proc = run("singularity", config, outdir)
        if proc.returncode != 0:
            failures += 1
            continue
        with open(os.path.join(outdir, "report.json")) as fh:
            report = json.load(fh)
        match = "matches" if report["verdict"] == expected else "differs from"
        print(
            f"   verdict {report['verdict']} ({match} theory)  "
            f"min_upper_gap {report['min_upper_gap']:.3e}  "
            f"median_gap {report['median_gap']:.3e}"
        )
        lorenz = [row["lorenz_90_length"] for row in report["rows"]]
        print("   lorenz_90_length " + " ".join(f"{v:.5f}" for v in lorenz))
        print_digest(label, proc, manifest)
    for name, command in OTHER_CONFIGS:
        stem = os.path.splitext(name)[0]
        print(f"== {stem}  ({command})")
        proc = run(
            command,
            os.path.join(ROOT, "configs", name),
            os.path.join(ROOT, "results", stem),
        )
        if proc.returncode != 0:
            failures += 1
            continue
        print_digest(stem, proc, manifest)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
