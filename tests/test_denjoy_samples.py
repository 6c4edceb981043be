"""Denjoy samples spread over the CPUs give the one-at-a-time results.

``cli._start_denjoy_samples`` draws ``denjoy_samples`` seeded random base
points and starts them in forked children on the CPUs but the first
(``cli._Blocks``), so that ``partition`` builds, checks and stages its
table beside them.  A base point whose orbit collides with a break fails
the run.  These tests hold it to the serial loop it replaced: the same
artifact bytes whatever the CPU count, the same first failure, and the
same error order against the build, the checks and the table, and no
child left behind.
"""

import json
import os
import random
import time
from itertools import chain

import pytest

from circlebreak import cli
from circlebreak.errors import (
    BreakCollision,
    CircleBreakError,
    InvariantFailure,
    PrecisionBudgetExceeded,
)

PQ_TUNED = {
    "kind": "pq",
    "a": 0.2,
    "c": 0.6,
    "sigma_a": 2.0,
    "sigma_c": 0.8,
    "translation": 0.6949140919153628,
}

# rank 14: each sample is a q_14 = 610 step orbit
PARTITION = {"map": PQ_TUNED, "rho": {"cf": [1] * 30}, "x0": 0.05, "n": 14}

SEED = 11

ALL_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []

needs_two_cpus = pytest.mark.skipif(
    len(ALL_CPUS) < 2 or not hasattr(os, "fork"),
    reason="the blocks only fan out with two usable CPUs and fork",
)


def _run(tmp_path, name, doc):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / name
    out.mkdir()
    code = cli.main(
        ["partition", "--config", str(cfg), "--out", str(out), "--seed", str(SEED)]
    )
    return code, out


def _artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _assert_no_children():
    # waitpid(-1) raises when this process has no child at all, reaped or not
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _one_cpu(monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {ALL_CPUS[0]})


def _draws(count):
    rng = random.Random(SEED)
    return {rng.random(): i for i in range(count)}


def test_partition_bytes_do_not_depend_on_the_cpu_count(tmp_path):
    doc = dict(PARTITION, denjoy_samples=40, decay_n_max=12, refinement=True)
    code, everywhere = _run(tmp_path, "all", doc)
    assert code == 0
    _assert_no_children()
    saved = os.sched_getaffinity(0)
    try:
        # as under `taskset -c 0`: the samples run in this process alone
        os.sched_setaffinity(0, {min(saved)})
        code, alone = _run(tmp_path, "one", doc)
    finally:
        os.sched_setaffinity(0, saved)
    assert code == 0
    assert _artifacts(alone) == _artifacts(everywhere)
    assert json.loads((alone / "partition.json").read_text())["denjoy"]["samples"] == 40
    _assert_no_children()


@pytest.mark.parametrize(
    "failing",
    [(27,), (27, 33), (5, 27), (39,), (0,)],
    ids=lambda f: "draws-" + "-".join(map(str, f)),
)
def test_first_failure_in_draw_order_exits_4(monkeypatch, tmp_path, capsys, failing):
    # with two CPUs all 40 draws run in a child beside the build; a child
    # that raises exits non-zero and its block is computed again here
    index = _draws(40)
    real = cli.denjoy_product

    def failing_product(m, cf, x, n, cap):
        i = index[x]
        if i in failing:
            raise InvariantFailure(f"Denjoy product escapes its bounds at draw {i}")
        return real(m, cf, x, n, cap=cap)

    monkeypatch.setattr(cli, "denjoy_product", failing_product)
    doc = dict(PARTITION, denjoy_samples=40)
    code, out = _run(tmp_path, "all", doc)
    message = capsys.readouterr().err
    _assert_no_children()
    _one_cpu(monkeypatch)
    serial_code, serial_out = _run(tmp_path, "one", doc)
    assert (code, message) == (serial_code, capsys.readouterr().err)
    assert code == 4
    first = min(failing)
    assert message == f"error: Denjoy product escapes its bounds at draw {first}\n"
    assert os.listdir(out) == os.listdir(serial_out) == []


def test_the_base_points_are_the_seeded_draws(monkeypatch):
    # a product that returns its base point shows which points were taken
    monkeypatch.setattr(cli, "denjoy_product", lambda m, cf, x, n, cap: x)
    got = cli._start_denjoy_samples(None, None, 0, 0, 40, SEED).join()
    assert got == list(_draws(40))
    _assert_no_children()


@pytest.mark.parametrize("cpus", ["all", "one"])
@pytest.mark.parametrize(
    "colliding",
    [(27,), (5, 27), (0, 39)],
    ids=lambda c: "draws-" + "-".join(map(str, c)),
)
def test_a_colliding_draw_exits_4(monkeypatch, tmp_path, capsys, cpus, colliding):
    # a colliding draw is not replaced: the first one in draw order fails
    # the run, before a bound failing at a later draw
    index = _draws(40)
    real = cli.denjoy_product

    def product(m, cf, x, n, cap):
        i = index[x]
        if i in colliding:
            raise BreakCollision(f"draw {i} collides")
        if i == 33:
            raise InvariantFailure("Denjoy product escapes its bounds at draw 33")
        return real(m, cf, x, n, cap=cap)

    monkeypatch.setattr(cli, "denjoy_product", product)
    if cpus == "one":
        _one_cpu(monkeypatch)
    code, out = _run(tmp_path, cpus, dict(PARTITION, denjoy_samples=40))
    assert code == 4
    x = list(index)[min(colliding)]
    assert capsys.readouterr().err == (
        f"error: the orbit of Denjoy base point {x!r}, drawn with --seed {SEED}, "
        "comes too close to a break; rerun with another --seed\n"
    )
    assert os.listdir(out) == []
    _assert_no_children()


def _where(x):
    return os.getpid(), sorted(os.sched_getaffinity(0))


@needs_two_cpus
def test_each_block_runs_pinned_to_its_own_cpu():
    children = len(ALL_CPUS) - 1
    blocks = cli._Blocks(_where, list(range(3 * children)), ALL_CPUS)
    waiting = sorted(os.sched_getaffinity(0))
    got = blocks.join()
    # this process waits on the first CPU until the join
    assert waiting == ALL_CPUS[:1]
    assert sorted(os.sched_getaffinity(0)) == ALL_CPUS
    _assert_no_children()
    # contiguous blocks of three, block b in a child on CPU b + 1
    assert [cpus for _, cpus in got] == [[c] for c in ALL_CPUS[1:] for _ in range(3)]
    pids = [pid for pid, _ in got]
    assert len(set(pids)) == children
    assert os.getpid() not in pids


@needs_two_cpus
def test_children_are_reaped_when_this_block_raises():
    # the children sleep; only the kill that partition makes when its own
    # work raises ends them in time
    def work(i):
        time.sleep(60)
        return i

    start = time.monotonic()
    cli._Blocks(work, list(range(2 * len(ALL_CPUS))), ALL_CPUS).kill()
    assert time.monotonic() - start < 10
    assert sorted(os.sched_getaffinity(0)) == ALL_CPUS
    _assert_no_children()


def test_one_usable_cpu_runs_everything_here(monkeypatch):
    _one_cpu(monkeypatch)
    items = list(range(5))
    blocks = cli._Blocks(_where, items, cli._spread_cpus(items))
    assert {pid for pid, _ in blocks.join()} == {os.getpid()}
    _assert_no_children()


@needs_two_cpus
def test_a_block_without_a_child_runs_here(monkeypatch):
    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(cli.os, "fork", no_fork)
    got = cli._Blocks(_where, list(range(2 * len(ALL_CPUS))), ALL_CPUS).join()
    # computed at the join, after this process is unpinned
    assert got == [(os.getpid(), ALL_CPUS)] * len(got)
    _assert_no_children()


@needs_two_cpus
def test_a_block_without_a_pipe_runs_here(monkeypatch):
    def no_pipe():
        raise OSError("too many open files")

    monkeypatch.setattr(cli.os, "pipe", no_pipe)
    got = cli._Blocks(_where, list(range(2 * len(ALL_CPUS))), ALL_CPUS).join()
    assert got == [(os.getpid(), ALL_CPUS)] * len(got)
    _assert_no_children()


def _here(x):
    return x, os.getpid()


@needs_two_cpus
def test_a_read_end_that_cannot_open_starts_no_child(monkeypatch):
    # the pipe's read end opens before the fork: when that fails, no
    # child exists to lose, both pipe ends close and the block runs here
    def no_reader(file, mode="r", *args, **kwargs):
        if mode == "rb":
            raise OSError("too many open files")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", no_reader, raising=False)
    fds = len(os.listdir("/proc/self/fd"))
    items = list(range(2 * len(ALL_CPUS)))
    got = cli._Blocks(_here, items, ALL_CPUS).join()
    assert got == [(x, os.getpid()) for x in items]
    _assert_no_children()
    assert len(os.listdir("/proc/self/fd")) == fds


def test_no_affinity_control_runs_everything_here(monkeypatch, tmp_path):
    # a platform without sched_getaffinity spreads nothing and writes the
    # bytes that one usable CPU writes
    doc = dict(PARTITION, denjoy_samples=6)
    _one_cpu(monkeypatch)
    code, alone = _run(tmp_path, "one", doc)
    assert code == 0
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    assert cli._spread_cpus([0.1, 0.2]) == []
    code, out = _run(tmp_path, "none", doc)
    assert code == 0
    assert _artifacts(out) == _artifacts(alone)
    _assert_no_children()


@needs_two_cpus
def test_children_are_reaped_when_a_later_fork_is_interrupted(monkeypatch):
    # two children on the CPU list; Ctrl-C lands in the second fork, after
    # the first child started its minute of sleep
    real = os.fork
    forks = []

    def interrupted():
        forks.append(None)
        if len(forks) == 2:
            raise KeyboardInterrupt
        return real()

    def work(i):
        time.sleep(60)
        return i

    monkeypatch.setattr(cli.os, "fork", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli._Blocks(work, [1, 2, 3, 4], ALL_CPUS + ALL_CPUS[:1])
    assert time.monotonic() - start < 10
    assert len(forks) == 2
    assert sorted(os.sched_getaffinity(0)) == ALL_CPUS
    _assert_no_children()


@needs_two_cpus
def test_a_child_that_cannot_pin_has_its_block_run_here(monkeypatch):
    real = os.sched_setaffinity

    def refuse_second(pid, cpus):
        if set(cpus) == {ALL_CPUS[1]}:
            raise OSError("CPU refused")
        real(pid, cpus)

    monkeypatch.setattr(cli.os, "sched_setaffinity", refuse_second)
    items = list(range(2 * (len(ALL_CPUS) - 1)))
    got = cli._Blocks(_where, items, ALL_CPUS).join()
    # the block bound for the second CPU ran here at the join, unpinned;
    # any later blocks ran in children on their own CPUs
    assert got[:2] == [(os.getpid(), ALL_CPUS)] * 2
    assert [cpus for _, cpus in got[2:]] == [[c] for c in ALL_CPUS[2:] for _ in range(2)]
    assert os.getpid() not in [pid for pid, _ in got[2:]]
    _assert_no_children()


@needs_two_cpus
def test_the_samples_run_during_the_build(monkeypatch, tmp_path):
    # a child's first sample leaves a file, which the build waits for
    flag = tmp_path / "sampling"
    parent = os.getpid()
    real_product, real_build = cli.denjoy_product, cli.build_partition
    seen = []

    def product(m, cf, x, n, cap):
        if os.getpid() != parent:
            flag.touch()
        return real_product(m, cf, x, n, cap=cap)

    def build(*args, **kwargs):
        deadline = time.monotonic() + 10
        while not flag.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        seen.append(flag.exists())
        return real_build(*args, **kwargs)

    monkeypatch.setattr(cli, "denjoy_product", product)
    monkeypatch.setattr(cli, "build_partition", build)
    code, _ = _run(tmp_path, "all", dict(PARTITION, denjoy_samples=40))
    assert code == 0
    assert seen == [True]
    _assert_no_children()


@pytest.mark.parametrize("cpus", ["all", "one"])
def test_a_failing_build_beats_a_failing_sample(monkeypatch, tmp_path, capsys, cpus):
    parent = os.getpid()

    def product(m, cf, x, n, cap):
        if os.getpid() != parent:
            time.sleep(60)  # only a kill ends this child in time
        raise InvariantFailure("Denjoy product escapes its bounds")

    def build(*args, **kwargs):
        raise PrecisionBudgetExceeded("the build ran out of orbit budget")

    monkeypatch.setattr(cli, "denjoy_product", product)
    monkeypatch.setattr(cli, "build_partition", build)
    if cpus == "one":
        _one_cpu(monkeypatch)
    start = time.monotonic()
    code, out = _run(tmp_path, cpus, dict(PARTITION, denjoy_samples=40))
    assert time.monotonic() - start < 10
    assert code == 3
    assert capsys.readouterr().err == "error: the build ran out of orbit budget\n"
    assert os.listdir(out) == []
    _assert_no_children()


def _failing_decay(m, cf, part):
    raise PrecisionBudgetExceeded("the decay fit ran out of orbit budget")


def _failing_refinement(part, fine, cf):
    raise CircleBreakError("the refinement audit failed")


def _nan_rows(part, real=cli.partition_rows):
    return chain(real(part), [(part.n, part.n, 0, 0.5, float("nan"))])


# failure -> (cli name to replace, replacement, exit code, message)
LATER_FAILURES = {
    "decay": (
        "max_element_decay",
        _failing_decay,
        3,
        "the decay fit ran out of orbit budget",
    ),
    "refinement": (
        "check_refinement",
        _failing_refinement,
        5,
        "the refinement audit failed",
    ),
    "csv": (
        "partition_rows",
        _nan_rows,
        4,
        "non-finite value nan reached an output table",
    ),
}


@pytest.mark.parametrize("cpus", ["all", "one"])
@pytest.mark.parametrize("later", sorted(LATER_FAILURES))
@pytest.mark.parametrize(
    "sample_fails", [True, False], ids=["sample-fails", "samples-pass"]
)
def test_a_failing_sample_beats_the_checks_and_the_table(
    monkeypatch, tmp_path, capsys, cpus, later, sample_fails
):
    # as in a serial run, a failed sample is raised before any failure of
    # the decay fit, the refinement audit or the table that ran beside it
    name, replacement, later_code, later_message = LATER_FAILURES[later]
    index = _draws(40)
    real = cli.denjoy_product

    def product(m, cf, x, n, cap):
        if sample_fails and index[x] == 27:
            raise InvariantFailure("Denjoy product escapes its bounds at draw 27")
        return real(m, cf, x, n, cap=cap)

    monkeypatch.setattr(cli, "denjoy_product", product)
    monkeypatch.setattr(cli, name, replacement)
    if cpus == "one":
        _one_cpu(monkeypatch)
    doc = dict(PARTITION, denjoy_samples=40, decay_n_max=12, refinement=True)
    code, out = _run(tmp_path, cpus, doc)
    if sample_fails:
        expected = (4, "error: Denjoy product escapes its bounds at draw 27\n")
    else:
        expected = (later_code, f"error: {later_message}\n")
    assert (code, capsys.readouterr().err) == expected
    assert os.listdir(out) == []
    _assert_no_children()


@needs_two_cpus
def test_a_refused_pin_runs_unpinned(monkeypatch, tmp_path, capsys):
    # as under a seccomp profile that forbids sched_setaffinity
    def refuse(pid, cpus):
        raise PermissionError("sched_setaffinity refused")

    monkeypatch.setattr(cli.os, "sched_setaffinity", refuse)
    doc = dict(PARTITION, denjoy_samples=40, decay_n_max=12, refinement=True)
    code, everywhere = _run(tmp_path, "all", doc)
    printed = capsys.readouterr().out
    assert code == 0
    _assert_no_children()
    assert sorted(os.sched_getaffinity(0)) == ALL_CPUS
    assert printed.splitlines() == [
        str(everywhere / "partition.json"),
        str(everywhere / "partition.csv"),
    ]
    _one_cpu(monkeypatch)
    code, alone = _run(tmp_path, "one", doc)
    assert code == 0
    assert _artifacts(alone) == _artifacts(everywhere)
    _assert_no_children()
