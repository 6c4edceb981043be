"""Denjoy samples spread over the CPUs give the one-at-a-time results.

``cli._start_denjoy_samples`` draws the first batch of base points and
starts it in forked children on the CPUs but the first (``cli._Blocks``),
so that ``partition`` builds, checks and stages its table beside them;
later batches, after collisions, are spread over every CPU
(``cli._map_on_cpus``: block 0 here, the others in children).  These
tests hold it to the serial loop it replaced: the same artifact bytes
whatever the CPU count, the same accepted base points, the same first
failure, the same collision cap and the same error order against the
build, the checks and the table, and no child left behind.
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


def _serial_samples(product, count, seed):
    # the one-at-a-time draw loop that cmd_partition ran before batching
    rng = random.Random(seed)
    prods = []
    attempts = 0
    while len(prods) < count:
        attempts += 1
        if attempts > 10 * count:
            raise InvariantFailure(
                "random base points keep colliding with break orbits"
            )
        try:
            prods.append(product(None, None, rng.random(), 0, cap=0))
        except BreakCollision:
            continue
    return prods


def _outcome(fn):
    try:
        return fn()
    except InvariantFailure as e:
        return str(e)


@pytest.mark.parametrize(
    "count, colliding",
    [
        (40, ()),
        (40, (3, 21, 22, 39, 40, 41)),
        (40, tuple(range(0, 80, 2))),
        (4, tuple(range(3, 39))),  # the last sample is the 40th and last draw
        (4, tuple(range(2, 39))),  # one short at the cap
        (3, tuple(range(1, 29))),  # one draw left for two samples
        (7, tuple(range(1, 70, 3))),
    ],
)
def test_collisions_accept_the_serial_base_points(monkeypatch, count, colliding):
    # a product that returns its base point shows which points were taken
    index = _draws(10 * count)

    def product(m, cf, x, n, cap):
        if index[x] in colliding:
            raise BreakCollision(f"draw {index[x]} collides")
        return x

    monkeypatch.setattr(cli, "denjoy_product", product)
    _, finish = cli._start_denjoy_samples(None, None, 0, 0, count, SEED)
    got = _outcome(finish)
    assert got == _outcome(lambda: _serial_samples(product, count, SEED))
    _assert_no_children()


def test_every_draw_colliding_fails_at_the_cap(monkeypatch, tmp_path, capsys):
    # each call appends one byte, children's calls included
    calls = tmp_path / "calls"
    fd = os.open(calls, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def product(m, cf, x, n, cap):
        os.write(fd, b".")
        raise BreakCollision("every draw collides")

    monkeypatch.setattr(cli, "denjoy_product", product)
    try:
        code, out = _run(tmp_path, "all", dict(PARTITION, denjoy_samples=6))
    finally:
        os.close(fd)
    assert code == 4
    assert capsys.readouterr().err == (
        "error: random base points keep colliding with break orbits\n"
    )
    assert calls.stat().st_size == 60
    assert os.listdir(out) == []
    _assert_no_children()


def _where(x):
    return os.getpid(), sorted(os.sched_getaffinity(0))


@needs_two_cpus
def test_each_block_runs_pinned_to_its_own_cpu():
    items = list(range(3 * len(ALL_CPUS)))
    got = cli._map_on_cpus(_where, items)
    assert sorted(os.sched_getaffinity(0)) == ALL_CPUS
    _assert_no_children()
    # contiguous blocks of three, block b on CPU b; block 0 in this process
    assert [cpus for _, cpus in got] == [[c] for c in ALL_CPUS for _ in range(3)]
    pids = [pid for pid, _ in got]
    assert pids[:3] == [os.getpid()] * 3
    assert len(set(pids)) == len(ALL_CPUS)
    assert cli._map_on_cpus(_where, [0]) == [(os.getpid(), ALL_CPUS)]


@needs_two_cpus
def test_children_are_reaped_when_this_block_raises():
    def work(i):
        if i == 0:
            raise InvariantFailure("first item fails")
        time.sleep(0.2)
        return i

    with pytest.raises(InvariantFailure, match="first item fails"):
        cli._map_on_cpus(work, list(range(4 * len(ALL_CPUS))))
    assert sorted(os.sched_getaffinity(0)) == ALL_CPUS
    _assert_no_children()


def test_one_usable_cpu_runs_everything_here(monkeypatch):
    _one_cpu(monkeypatch)
    got = cli._map_on_cpus(_where, list(range(5)))
    assert {pid for pid, _ in got} == {os.getpid()}


@needs_two_cpus
def test_a_block_without_a_child_runs_here(monkeypatch):
    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(cli.os, "fork", no_fork)
    got = cli._map_on_cpus(_where, list(range(2 * len(ALL_CPUS))))
    assert {pid for pid, _ in got} == {os.getpid()}
    _assert_no_children()


@needs_two_cpus
def test_a_child_that_cannot_pin_has_its_block_run_here(monkeypatch):
    real = os.sched_setaffinity
    allowed = set(ALL_CPUS)

    def pin_first_only(pid, cpus):
        if set(cpus) not in ({ALL_CPUS[0]}, allowed):
            raise OSError("CPU refused")
        real(pid, cpus)

    monkeypatch.setattr(cli.os, "sched_setaffinity", pin_first_only)
    got = cli._map_on_cpus(_where, list(range(2 * len(ALL_CPUS))))
    # block 0 ran pinned; the others ran here after the pin, unpinned
    assert got[:2] == [(os.getpid(), ALL_CPUS[:1])] * 2
    assert got[2:] == [(os.getpid(), ALL_CPUS)] * (len(got) - 2)
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
    # as under a seccomp profile that forbids sched_setaffinity; draws 3
    # and 5 collide, so a second batch of two runs through _map_on_cpus
    index = _draws(400)
    real = cli.denjoy_product

    def product(m, cf, x, n, cap):
        if index[x] in (3, 5):
            raise BreakCollision(f"draw {index[x]} collides")
        return real(m, cf, x, n, cap=cap)

    def refuse(pid, cpus):
        raise PermissionError("sched_setaffinity refused")

    monkeypatch.setattr(cli, "denjoy_product", product)
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
