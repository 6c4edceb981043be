import csv
import io
import json
import math
import os
import sys
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest

from conftest import FIRST_BREAK_AUDIT, load_script

from circlebreak import crossratio
from circlebreak.cli import CSV_CHUNK_LINES, _csv_chunks, _write_all, fmt, main
from circlebreak.crossratio import lift_into
from circlebreak.errors import InvariantFailure
from circlebreak.maps import make_rotation
from circlebreak.partition import build_partition, partition_rows
from circlebreak.rotation import ContinuedFraction
from circlebreak.singularity import CASE_TAGS, ReportRow, SingularityReport, mass_width

PQ_GOLDEN_T = 0.6949140919153628  # certified by the tune example config

PQ_MAP = {"kind": "pq", "a": 0.2, "c": 0.6, "sigma_a": 2.0, "sigma_c": 0.8}
PQ_TUNED = dict(PQ_MAP, translation=PQ_GOLDEN_T)


def run(tmp_path, command, doc, name="cfg.json", extra=()):
    cfg = tmp_path / name
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    code = main([command, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


def test_rotnum_rational_third(tmp_path):
    code, out = run(
        tmp_path,
        "rotnum",
        {
            "map": {"kind": "rotation", "translation": 0.3333333333333333},
            "depth": 40,
            "estimate_n": 500,
        },
    )
    assert code == 0
    doc = json.loads((out / "rotnum.json").read_text())
    assert doc["farey"]["rational"] == [1, 3]
    assert doc["quotients"] == [3]
    lines = (out / "cf_table.csv").read_text().splitlines()
    assert lines[0] == "n,k_n,p_n,q_n,err"
    assert len(lines) == 2
    assert lines[1].startswith("1,3,1,3,")


@pytest.mark.parametrize("translation", [0.0, 1.0])
def test_rotnum_integer_rotation_number_has_no_quotients(tmp_path, translation):
    code, out = run(
        tmp_path,
        "rotnum",
        {"map": {"kind": "rotation", "translation": translation}, "depth": 5, "estimate_n": 100},
    )
    assert code == 0
    doc = json.loads((out / "rotnum.json").read_text())
    assert doc["farey"]["rational"] == [int(translation), 1]
    assert doc["quotients"] == []
    assert doc["max_quotient"] is None
    assert (out / "cf_table.csv").read_text().splitlines() == ["n,k_n,p_n,q_n,err"]


def test_rotnum_golden_quotients(tmp_path):
    code, out = run(
        tmp_path,
        "rotnum",
        {
            "map": {"kind": "rotation", "translation": 0.6180339887498949},
            "depth": 20,
            "estimate_n": 0,
        },
    )
    assert code == 0
    doc = json.loads((out / "rotnum.json").read_text())
    assert doc["quotients"][:10] == [1] * 10
    assert doc["farey"]["rational"] is None


def test_unknown_key_exits_2_without_files(tmp_path):
    code, out = run(
        tmp_path,
        "rotnum",
        {"map": {"kind": "rotation", "translation": 0.3}, "depht": 10},
    )
    assert code == 2
    assert os.listdir(out) == []


def test_malformed_json_exits_2(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["rotnum", "--config", str(cfg), "--out", str(out)]) == 2
    assert os.listdir(out) == []


def test_missing_config_exits_2(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    code = main(
        ["rotnum", "--config", str(tmp_path / "absent.json"), "--out", str(out)]
    )
    assert code == 2
    assert os.listdir(out) == []


def test_extended_precision_refused(tmp_path):
    # float64 is the only backend: the option does not exist
    with pytest.raises(SystemExit) as exc:
        run(
            tmp_path,
            "rotnum",
            {"map": {"kind": "rotation", "translation": 0.3}},
            extra=("--precision", "extended"),
        )
    assert exc.value.code == 2
    assert os.listdir(tmp_path / "out") == []


def test_tune_example_config_finds_the_pinned_translation(tmp_path):
    # the partition and measure example configs pin this translation; the
    # bisection path that finds it must not drift
    doc = json.loads((CONFIG_DIR / "tune_pq_golden.json").read_text())
    code, out = run(tmp_path, "tune", doc)
    assert code == 0
    report = json.loads((out / "tune.json").read_text())
    assert report["t_star"] == PQ_GOLDEN_T
    assert report["bisections"] == 32


def test_tune_rejects_pinned_translation(tmp_path):
    code, out = run(
        tmp_path,
        "tune",
        {"map": PQ_TUNED, "target_rho": {"cf": [1] * 30}, "tol": 1e-6},
    )
    assert code == 2
    assert os.listdir(out) == []


def test_budget_exhaustion_exits_3_without_files(tmp_path):
    code, out = run(
        tmp_path,
        "rotnum",
        {
            "map": {"kind": "rotation", "translation": 0.6180339887498949},
            "depth": 40,
            "estimate_n": 0,
            "cap": 100_000,
        },
    )
    assert code == 3
    assert os.listdir(out) == []


def test_rho_width_beyond_cap_exits_3_without_files(tmp_path, capsys):
    # singularity sizes the rho enclosure by its deepest rank, measure by
    # drift_tol / points; a cap below the orbit that width needs must fail
    # before anything is written. At rank 12 the partition orbit fits the
    # cap; tuning to the mass width needs the golden bracket of q_20, which
    # does not.
    cf = ContinuedFraction.from_quotients([1] * 30)
    part = build_partition(make_rotation(cf.value), cf, 0.05, 12, cap=5_000)
    assert len(part.orbit) == cf.q(12) + cf.q(11) == 377
    assert cf.bracket_within(mass_width(cf, 12)) == 20
    assert cf.q(20) == 10_946
    runs = {
        "singularity": {
            "kind": "pq",
            "label": "capped",
            "n_min": 11,
            "n_max": 12,
            "cap": 5_000,
        },
        "measure": {
            "map": PQ_TUNED,
            "rho": {"cf": [1] * 30},
            "x0": 0.05,
            "n": 5,
            "points": 400,
            "cap": 5_000,
        },
    }
    for command, doc in runs.items():
        sub = tmp_path / command
        sub.mkdir()
        code, out = run(sub, command, doc)
        assert code == 3
        assert os.listdir(out) == []
        assert "exceeds cap" in capsys.readouterr().err


SINGULARITY = {"kind": "pq", "n_min": 5, "n_max": 6}
MEASURE = {"map": PQ_TUNED, "rho": {"cf": [1] * 30}, "x0": 0.05, "n": 5}
TUNE = {"map": PQ_MAP, "target_rho": {"cf": [1] * 30}}
ROTNUM = {"map": {"kind": "rotation", "translation": 0.3333333333333333}, "depth": 10}
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
PARTITION = json.loads((CONFIG_DIR / "partition_pq_golden.json").read_text())


@pytest.mark.parametrize(
    "command, doc",
    [
        ("singularity", dict(SINGULARITY, n_min="5")),
        ("singularity", dict(SINGULARITY, x0="abc")),
        ("singularity", dict(SINGULARITY, cap="big")),
        # the tuning width follows from n_max
        ("singularity", dict(SINGULARITY, tune_tol=1e-10)),
        ("singularity", dict(SINGULARITY, rho_quotients=[1.5] + [1] * 29)),
        ("singularity", dict(SINGULARITY, same_orbit_steps=1.0)),
        ("singularity", {"n_min": 5, "n_max": 6}),
        ("partition", dict(MEASURE, n=0)),
        ("measure", dict(MEASURE, n=0)),
        ("measure", dict(MEASURE, points=1)),
        ("measure", dict(MEASURE, drift_tol=0)),
        ("tune", dict(TUNE, tol=-1)),
        # brackets of too few quotients cannot certify the tolerance
        ("tune", dict(TUNE, target_rho=0.25)),
        # rank 12's mass width needs the golden bracket 20
        ("singularity", dict(SINGULARITY, rho_quotients=[1] * 19, n_max=12)),
        # rank 22's mass width, 9.3e-13, is past what binary64 certifies
        ("singularity", dict(SINGULARITY, n_max=22)),
        # one point short of the rank-8 partition orbit, q_8 + q_7 = 55
        ("measure", dict(MEASURE, n=8, points=54)),
        # ranks past the given quotients; the example config refines, so
        # its deepest rank is n + 1
        ("partition", dict(PARTITION, rho={"cf": [1] * 5}, n=8)),
        ("partition", dict(PARTITION, rho={"cf": [1] * 6}, n=4, decay_n_max=9)),
        ("partition", dict(PARTITION, rho={"cf": [1] * 6}, n=6, decay_n_max=6)),
        # counts and caps out of range, refused before any orbit runs
        ("partition", dict(PARTITION, denjoy_samples=-1)),
        ("partition", dict(PARTITION, decay_n_max=-1)),
        ("partition", dict(PARTITION, decay_n_max=1)),
        ("partition", dict(PARTITION, cap=-1)),
        ("rotnum", dict(ROTNUM, estimate_n=-1)),
        ("rotnum", dict(ROTNUM, cap=0)),
        ("tune", dict(TUNE, cap=0)),
        ("measure", dict(MEASURE, cap=0)),
        ("singularity", dict(SINGULARITY, cap=0)),
        # json reads NaN, Infinity and integers past the float range; no
        # config number may be any of them
        ("partition", dict(PARTITION, x0=math.nan)),
        ("measure", dict(MEASURE, map=dict(PQ_TUNED, a=math.nan))),
        ("partition", dict(PARTITION, map={"kind": "rotation", "translation": math.inf})),
        ("rotnum", dict(ROTNUM, map={"kind": "rotation", "translation": math.nan})),
        # from 2**52 on, x + t keeps at most one fractional bit; at 1e308
        # the orbit loops' float winding overflowed
        ("rotnum", dict(ROTNUM, map={"kind": "rotation", "translation": 1e308})),
        ("rotnum", dict(ROTNUM, map={"kind": "rotation", "translation": -(2**52)})),
        ("singularity", dict(SINGULARITY, x0=math.nan)),
        ("singularity", dict(SINGULARITY, a=10**400)),
        ("distortion", {"map": PQ_MAP, "quadruples": [[0.1, 0.2, 0.3, math.inf]]}),
        ("distortion", {"map": PQ_MAP, "quadruples": [[0.1, 0.2, math.nan, 0.4]]}),
        ("distortion", {"map": PQ_MAP, "quadruples": [[0.1, 0.2, 0.3, 10**400]]}),
        ("distortion", {"map": PQ_MAP, "quadruples": [[0.0, 0.3, 0.6, 1.2]]}),
        ("partition", dict(PARTITION, rho=10**400)),
        ("measure", dict(MEASURE, rho=10**400)),
        ("tune", dict(TUNE, target_rho=10**400)),
    ],
    ids=[
        "n_min-string",
        "x0-string",
        "cap-string",
        "tune_tol-removed",
        "rho_quotients-fraction",
        "same_orbit_steps-float",
        "kind-missing",
        "partition-n-0",
        "measure-n-0",
        "measure-points-1",
        "measure-drift_tol-0",
        "tune-tol-negative",
        "tune-target-rational",
        "singularity-quotients-short-for-mass-width",
        "singularity-n_max-past-tune-floor",
        "measure-points-below-partition-orbit",
        "partition-n-past-quotients",
        "partition-decay_n_max-past-quotients",
        "partition-refinement-past-quotients",
        "partition-denjoy_samples-negative",
        "partition-decay_n_max-negative",
        "partition-decay_n_max-1",
        "partition-cap-negative",
        "rotnum-estimate_n-negative",
        "rotnum-cap-0",
        "tune-cap-0",
        "measure-cap-0",
        "singularity-cap-0",
        "partition-x0-nan",
        "measure-pq-a-nan",
        "partition-rotation-translation-infinity",
        "rotnum-translation-nan",
        "rotnum-translation-1e308",
        "rotnum-translation-minus-2-52",
        "singularity-x0-nan",
        "singularity-a-past-float-range",
        "distortion-quadruple-infinity",
        "distortion-quadruple-nan",
        "distortion-quadruple-past-float-range",
        "distortion-quadruple-wider-than-one-turn",
        "partition-rho-past-float-range",
        "measure-rho-past-float-range",
        "tune-target_rho-past-float-range",
    ],
)
def test_malformed_config_exits_2(tmp_path, command, doc):
    code, out = run(tmp_path, command, doc)
    assert code == 2
    assert os.listdir(out) == []


@pytest.mark.parametrize(
    "command, doc, key",
    [
        ("tune", dict(TUNE, target_rho=1e-20), "target_rho"),
        ("partition", dict(PARTITION, rho=1e-20), "rho"),
        ("measure", dict(MEASURE, rho=1e-20), "rho"),
    ],
    ids=["tune", "partition", "measure"],
)
def test_unresolvable_decimal_rho_exits_2_naming_the_key(tmp_path, capsys, command, doc, key):
    # 1e-20 lies in (0, 1), but binary64 resolves none of its quotients
    code, out = run(tmp_path, command, doc)
    assert code == 2
    assert os.listdir(out) == []
    err = capsys.readouterr().err
    assert err == f"error: {key} 1e-20: no partial quotients resolvable at this precision\n"


@pytest.mark.parametrize(
    "translation",
    [
        pytest.param(
            4503599627370495.5,
            marks=pytest.mark.xfail(
                strict=True,
                raises=AssertionError,
                reason="exits 4: advance sums the winding as a float, which "
                "rounds past 2**53 turns; after 10000 steps it reads "
                "45035996273704951808 for the exact 45035996273704955000 (ulp "
                "8192), so the iterated estimate reads rho 0 and misses the "
                "Farey enclosure at 0.5, though each x + t step is exact "
                "(ROADMAP item 10)",
            ),
        ),
        1e15,
    ],
    ids=["just-below-2-52", "1e15"],
)
def test_rotnum_large_translations_exit_0(tmp_path, capsys, translation):
    code, _ = run(tmp_path, "rotnum", {"map": {"kind": "rotation", "translation": translation}})
    err = capsys.readouterr().err
    if code != 0 and not (code == 4 and "estimates do not intersect" in err):
        pytest.fail(f"exit {code} for a reason other than ROADMAP item 10: {err}")
    assert code == 0


def test_breaks_that_coincide_on_the_circle_exit_5(tmp_path, capsys):
    # c = 1.2 reduces to the same circle point as a = 0.2
    code, out = run(tmp_path, "rotnum", dict(ROTNUM, map=dict(PQ_MAP, c=1.2)))
    assert code == 5
    assert os.listdir(out) == []
    assert capsys.readouterr().err == "error: break points coincide\n"


@pytest.mark.parametrize(
    "doc, keys",
    [
        ({"kind": "pl", "sigma_a": 9.0}, "sigma_a"),
        ({"kind": "pl", "sigma_c": 0.5}, "sigma_c"),
        ({"kind": "pq", "slope_ratio": 2.0}, "slope_ratio"),
        (
            {"kind": "rotation", "same_orbit_steps": 3, "sigma_a": 5.0},
            "same_orbit_steps, sigma_a",
        ),
        (
            {"kind": "rotation", "a": 0.3, "c": 0.7, "sigma_c": 0.5, "slope_ratio": 2.0},
            "a, c, sigma_c, slope_ratio",
        ),
        # the same-orbit solve places c itself
        ({"kind": "pq", "c": 0.9, "same_orbit_steps": 1}, "c"),
        ({"kind": "pl", "c": 0.9, "same_orbit_steps": 2}, "c"),
    ],
    ids=[
        "pl-sigma_a",
        "pl-sigma_c",
        "pq-slope_ratio",
        "rotation-same_orbit_steps",
        "rotation-shape",
        "pq-same-orbit-c",
        "pl-same-orbit-c",
    ],
)
def test_singularity_refuses_keys_its_map_never_reads(tmp_path, capsys, doc, keys):
    code, out = run(tmp_path, "singularity", dict(doc, n_min=5, n_max=6))
    assert code == 2
    assert os.listdir(out) == []
    kind = doc["kind"]
    assert capsys.readouterr().err == (
        f"error: a {kind} singularity config does not read {keys}\n"
    )


def test_singularity_null_same_orbit_steps_is_the_default(tmp_path):
    # null leaves c to the config, on every kind
    for kind, extra in (("pq", {"c": 0.7}), ("rotation", {})):
        doc = dict(kind=kind, n_min=5, n_max=5, same_orbit_steps=None, **extra)
        code, out = run(tmp_path, "singularity", doc)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["map_params"].get("c", 0.7) == 0.7


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "pq", "n_min": 1, "n_max": 2},
        {"kind": "pl", "n_min": 1, "n_max": 2},
        {"kind": "pq", "n_min": 1, "n_max": 2, "same_orbit_steps": 1},
    ],
    ids=["pq", "pl", "pq-same-orbit"],
)
def test_two_break_rank_1_with_k1_of_1_exits_2(tmp_path, capsys, doc):
    # k_1 = 1 gives q_1 = q_0, so the rank-1 cover window is one point
    code, out = run(tmp_path, "singularity", doc)
    assert code == 2
    assert os.listdir(out) == []
    assert "k_1 = 1 needs n_min >= 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "pq", "n_min": 1, "n_max": 2, "rho_quotients": [2] + [1] * 29},
        {"kind": "rotation", "n_min": 1, "n_max": 2},
    ],
    ids=["pq-k1-2", "rotation"],
)
def test_rank_1_runs_when_k1_exceeds_1_or_on_the_rotation(tmp_path, doc):
    code, out = run(tmp_path, "singularity", doc)
    assert code == 0
    assert json.loads((out / "report.json").read_text())["rows"][0]["n"] == 1


@pytest.mark.parametrize(
    "doc, null_gf_gap",
    [(SINGULARITY, True), (dict(SINGULARITY, same_orbit_steps=1), False)],
    ids=["null-gf_gap", "gf_gap"],
)
def test_singularity_files_are_written_from_the_record_fields(tmp_path, doc, null_gf_gap):
    # one name per quantity: rows.csv's header and each report.json row's
    # keys are ReportRow's fields, report.json's keys SingularityReport's
    code, out = run(tmp_path, "singularity", doc)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    fields = [f for f in SingularityReport._fields if f != "curves"]
    assert list(report) == ["schema", "command", *fields]
    with open(out / "rows.csv", newline="") as fh:
        header, *lines = csv.reader(fh)
    assert header == list(report["rows"][0]) == list(ReportRow._fields)
    assert len(lines) == len(report["rows"])
    for line, row in zip(lines, report["rows"]):
        assert list(row) == header
        want = [
            "" if v is None else v if isinstance(v, str) else fmt(v)
            for v in row.values()
        ]
        assert line == want
    assert {row["gf_gap"] is None for row in report["rows"]} == {null_gf_gap}


# The bundled experiments and the verdict theory predicts for each, the
# table scripts/run_all_experiments.py prints its verdicts against.
EXPERIMENT_THEORY = [
    (os.path.splitext(name)[0], verdict)
    for name, verdict, _ in load_script("run_all_experiments").EXPERIMENTS
]

ITEM_1B = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="INCONCLUSIVE: only maps without two breaks can reach AC_BASELINE "
    "(ROADMAP item 1b)",
)


def _theory_marks(name):
    return ITEM_1B if name == "pl_herman" else ()


def _assert_verdict(code, out, verdict):
    """The run exited 0 with ``verdict``.  A nonzero exit, or a verdict
    other than ``verdict`` and INCONCLUSIVE, fails outright, so under a
    pin only an INCONCLUSIVE run counts as the expected miss."""
    if code != 0:
        pytest.fail(f"exit {code}")
    got = json.loads((out / "report.json").read_text())["verdict"]
    if got not in (verdict, "INCONCLUSIVE"):
        pytest.fail(f"verdict {got} where theory predicts {verdict}")
    assert got == verdict


# pl_herman misses its theory verdict (ROADMAP item 1b); its cell with no
# verdict pins what the run does reach: exit 0 and never a singular verdict.
@pytest.mark.parametrize(
    "name, verdict",
    [pytest.param(*cell, marks=_theory_marks(cell[0])) for cell in EXPERIMENT_THEORY]
    + [("pl_herman", None)],
)
def test_bundled_experiments_keep_their_verdicts(tmp_path, name, verdict):
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    code, out = run(tmp_path, "singularity", doc)
    if verdict is None:
        assert code == 0
        assert json.loads((out / "report.json").read_text())["verdict"] != "SINGULAR_EVIDENCE"
        return
    _assert_verdict(code, out, verdict)


# What stops each run that item 8's chain defect breaks; a pin that stops
# for another reason fails outright instead of counting as expected.
C0_DRIFT = "drifted from C0"


def _passes_unless_item_8(capsys, code, cause):
    err = capsys.readouterr().err
    if code != 0 and not (code == 4 and cause in err):
        pytest.fail(f"exit {code} for a reason other than ROADMAP item 8: {err}")
    assert code == 0


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="exits 4: the first-break audit's one-step factor 1.3333333872289526 "
    "misses its closed form 1.3333334026021675 beyond 9.27e-09, from the "
    "distortion chain's gap rounding (ROADMAP item 8; item 14's prototype "
    "makes it pass)",
)
def test_pq_main_passes_at_rank_17(tmp_path, capsys):
    doc = json.loads((CONFIG_DIR / "pq_main.json").read_text())
    code, _ = run(tmp_path, "singularity", dict(doc, n_min=17, n_max=17))
    _passes_unless_item_8(capsys, code, FIRST_BREAK_AUDIT)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="exits 4: the constructed ratio 84.16666678645339 drifted from C0 "
    "84.16666666666661, since the triple's gaps are differences of absolute "
    "lifts around abar (ROADMAP item 8)",
)
def test_pq_same_orbit_passes_at_rank_19(tmp_path, capsys):
    doc = json.loads((CONFIG_DIR / "pq_same_orbit.json").read_text())
    doc.update(x0=0.9777456784655486, n_min=19, n_max=19)
    code, _ = run(tmp_path, "singularity", doc)
    _passes_unless_item_8(capsys, code, C0_DRIFT)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="exits 5: same-orbit placement did not converge in 40 rounds; the "
    "loop settles into an exact 2-cycle (ROADMAP Negative results)",
)
def test_three_step_same_orbit_passes_at_rank_12(tmp_path):
    doc = {"kind": "pq", "n_min": 5, "n_max": 12, "same_orbit_steps": 3}
    code, _ = run(tmp_path, "singularity", doc)
    assert code == 0


# The rotation numbers of the verdict grid: the golden and silver means,
# a mixed expansion, one large quotient (k_6 = 20) and e's pattern.
GRID_RHO = {
    "golden": [1] * 30,
    "silver": [2] * 30,
    "mixed": [1, 3, 1, 7, 2, 1, 4, 1, 2, 5, 1, 1, 3, 2, 1, 6, 1, 2, 1, 3, 1, 1, 2, 4],
    "quotient-20": [1] * 5 + [20] + [1] * 24,
    "e-like": [2, 1, 2] + [q for k in range(4, 22, 2) for q in (1, 1, k)],
}


def _grid_cells():
    for name, verdict in EXPERIMENT_THEORY:
        for rho in GRID_RHO:
            marks = _theory_marks(name)
            yield pytest.param(name, rho, verdict, marks=marks, id=f"{name}-{rho}")


def _grid_run(tmp_path, name, rho, n_min, n_max):
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    doc.update(rho_quotients=GRID_RHO[rho], n_min=n_min, n_max=n_max)
    return run(tmp_path, "singularity", doc)


@pytest.mark.parametrize("name, rho, verdict", list(_grid_cells()))
def test_verdicts_beyond_the_golden_mean(tmp_path, name, rho, verdict):
    # the theorems hold for every irrational rotation number, so each
    # bundled map reaches the verdict theory predicts on each of the five
    code, out = _grid_run(tmp_path, name, rho, 5, 8)
    _assert_verdict(code, out, verdict)


# pq_main's first failing rank off the golden mean; the mixed rho also
# exits 4 at rank 10, but that run takes about 2 s, most of it tuning, so
# it has no pin yet.
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="exits 4: the first-break audit's one-step factor misses its closed "
    "form, from the distortion chain's gap rounding (ROADMAP item 8; item 14's "
    "prototype makes them pass)",
)
@pytest.mark.parametrize("rho, rank", [("silver", 10), ("quotient-20", 11)])
def test_pq_main_passes_beyond_the_golden_mean(tmp_path, capsys, rho, rank):
    code, _ = _grid_run(tmp_path, "pq_main", rho, rank, rank)
    _passes_unless_item_8(capsys, code, FIRST_BREAK_AUDIT)


@pytest.mark.parametrize(
    "doc, tag",
    [
        ({"kind": "pq", "n_min": 7, "n_max": 7, "same_orbit_steps": 3}, "c_in_U_right"),
        ({"kind": "pl", "n_min": 5, "n_max": 6, "same_orbit_steps": 3}, "c_in_U_right"),
        # a near 1 puts the cover hulls across 0, where a curvature budget
        # read between the circle representatives of the ends came out 0
        (
            {"kind": "pq", "a": 0.995, "sigma_a": 2.0, "sigma_c": 0.8, "same_orbit_steps": 1},
            "c_in_U_left",
        ),
    ],
    ids=["pq-three-steps", "pl-three-steps", "pq-hull-across-zero"],
)
def test_same_orbit_experiments_pass_their_audits(tmp_path, doc, tag):
    code, out = run(tmp_path, "singularity", doc)
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["rows"][-1]["case_tag"] == tag


@pytest.mark.parametrize("value", [-1.0, float("nan")], ids=["negative", "nan"])
@pytest.mark.parametrize(
    "key", ["gap_abs_floor", "gap_floor_ratio", "lorenz_violation_limit", "threshold"]
)
def test_verdict_threshold_below_zero_exits_2(tmp_path, key, value):
    # the verdict thresholds and the Lorenz mass share are module
    # constants, not config keys: a config that sets one is refused as
    # naming an unknown key
    doc = {"kind": "rotation", "n_min": 4, "n_max": 6, key: value}
    code, out = run(tmp_path, "singularity", doc)
    assert code == 2
    assert os.listdir(out) == []


def test_unreachable_tolerance_exits_3(tmp_path):
    # tol 1e-10 needs the golden bracket of q_26 = 196418, far past the cap
    code, out = run(
        tmp_path,
        "tune",
        {
            "map": {"kind": "pl", "a": 0.2, "c": 0.6, "slope_ratio": 3.0},
            "target_rho": {"cf": [1] * 30},
            "tol": 1e-10,
            "cap": 2000,
        },
    )
    assert code == 3
    assert os.listdir(out) == []


def test_partition_below_the_resolution_floor_exits_3(tmp_path, capsys):
    # rho = 1 / (1 + 1e-14): a rank-1 cell about 1e-14 long is below the
    # 1e3 eps at which binary64 can certify the cells' order
    code, out = run(
        tmp_path,
        "partition",
        {
            "map": {"kind": "rotation", "translation": 0.99999999999999},
            "rho": {"cf": [1, 100_000_000_000_000]},
            "n": 1,
        },
    )
    assert code == 3
    assert os.listdir(out) == []
    assert (
        "min element length 9.950e-15 at rank 1 is below the 1e+03*eps "
        "resolution floor" in capsys.readouterr().err
    )


def test_partition_outputs(tmp_path, capsys):
    code, out = run(
        tmp_path,
        "partition",
        {"map": PQ_TUNED, "rho": {"cf": [1] * 12}, "x0": 0.05, "n": 5},
    )
    assert code == 0
    printed = capsys.readouterr().out.splitlines()
    assert sorted(os.path.basename(p) for p in printed) == [
        "partition.csv",
        "partition.json",
    ]
    doc = json.loads((out / "partition.json").read_text())
    assert (doc["q_n"], doc["q_nm1"]) == (8, 5)
    assert doc["elements"] == 13
    lines = (out / "partition.csv").read_text().splitlines()
    assert lines[0] == "n,rank_tag,index,left,length"
    assert len(lines) == 1 + 13


def test_partition_refinement_with_a_nudged_fine_orbit(tmp_path):
    # x0 is T^-15 of the break a: only the rank-6 orbit (21 points) meets
    # it, and rank 5 is cut from that orbit, so both share the nudged x0
    code, out = run(
        tmp_path,
        "partition",
        {
            "map": PQ_TUNED,
            "rho": {"cf": [1] * 30},
            "x0": 0.9892413703822137,
            "n": 5,
            "refinement": True,
        },
    )
    assert code == 0
    doc = json.loads((out / "partition.json").read_text())
    assert doc["refinement"]["split_min"] == doc["refinement"]["split_max"] == 2
    assert doc["elements"] == 13


def test_partition_builds_one_orbit_for_every_rank(monkeypatch, tmp_path):
    # rank n, the refinement's rank n + 1 and the decay ranks 1..decay_n_max
    # are all cut from a single build at the deepest of them
    builds = []

    def counted(m, cf, x0, n, cap):
        builds.append(n)
        return build_partition(m, cf, x0, n, cap=cap)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "circlebreak":
            for attr, value in list(vars(mod).items()):
                if value is build_partition:
                    monkeypatch.setattr(mod, attr, counted)
    for decay_n_max, deepest in ((10, 10), (4, 9)):
        builds.clear()
        sub = tmp_path / str(decay_n_max)
        sub.mkdir()
        code, out = run(sub, "partition", dict(PARTITION, decay_n_max=decay_n_max))
        assert code == 0
        assert builds == [deepest]
        doc = json.loads((out / "partition.json").read_text())
        assert [row[0] for row in doc["decay"]["rows"]] == list(range(1, decay_n_max + 1))
        assert doc["refinement"]["split_min"] == 2


def test_distortion_explicit_rows(tmp_path):
    code, out = run(
        tmp_path,
        "distortion",
        {
            "map": PQ_MAP,
            "quadruples": [
                [0.25, 0.26, 0.27, 0.28],
                [0.195, 0.2, 0.205, 0.21],
            ],
        },
    )
    assert code == 0
    doc = json.loads((out / "distortion.json").read_text())
    assert doc["count"] == 2
    assert doc["closed_form_rows"] == 1
    lines = (out / "distortion.csv").read_text().splitlines()
    assert lines[0] == "z1,z2,z3,z4,Cr,Dist,predicted,residual,bound"
    assert len(lines) == 3
    assert lines[1].split(",")[6] == "1"  # break-free row predicts 1


def _rows_within_their_bounds(out):
    """Count of distortion.csv rows with a bound; each must hold it."""
    with open(out / "distortion.csv", newline="") as fh:
        bounded = [r for r in csv.DictReader(fh) if r["bound"]]
    for r in bounded:
        assert float(r["residual"]) <= float(r["bound"]), r
    return len(bounded)


PL_MAP = {"kind": "pl", "a": 0.2, "c": 0.6, "slope_ratio": 3.0}


@pytest.mark.parametrize(
    "doc",
    [
        json.loads((CONFIG_DIR / "distortion_pq.json").read_text()),
        {"map": PARTITION["map"], "sample": {"count": 2000, "scale": 0.005}},
        {"map": PARTITION["map"], "sample": {"count": 2000, "scale": 0.02}},
        {"map": PL_MAP, "sample": {"count": 2000, "scale": 0.005}},
        {"map": PL_MAP, "sample": {"count": 2000, "scale": 0.02}},
    ],
    ids=["distortion_pq", "pq-pinned-0.005", "pq-pinned-0.02", "pl-0.005", "pl-0.02"],
)
def test_distortion_rows_hold_their_bounds(tmp_path, doc):
    # the row check the benchmark's deep_partition workload reads off each
    # distortion op, at its scales 0.005-0.02
    code, out = run(tmp_path, "distortion", doc, extra=("--seed", "7"))
    assert code == 0
    report = json.loads((out / "distortion.json").read_text())
    assert report["closed_form_rows"] > 0
    assert _rows_within_their_bounds(out) > report["closed_form_rows"]


@pytest.mark.parametrize(
    "doc",
    [
        json.loads((CONFIG_DIR / "distortion_pq.json").read_text()),
        {"map": PARTITION["map"], "sample": {"count": 2000, "scale": 0.01}},
    ],
    ids=["distortion_pq", "pq-pinned-0.01"],
)
def test_break_free_rows_stay_on_the_row_kernel(tmp_path, monkeypatch, doc):
    # distortion_rows computes a break-free row itself; only rows whose
    # hull holds a break may reach the per-row path
    general = crossratio._general_row
    reached = {True: 0, False: 0}

    def counted(q, m):
        reached[any(q.z1 < lift_into(b.location, q.z1) < q.z4 for b in m.breaks)] += 1
        return general(q, m)

    monkeypatch.setattr(crossratio, "_general_row", counted)
    code, _ = run(tmp_path, "distortion", doc, extra=("--seed", "7"))
    assert code == 0
    assert reached[False] == 0
    assert reached[True] > 0


def test_distortion_quadruple_must_fit_one_turn(tmp_path, capsys):
    doc = {"map": PQ_MAP, "quadruples": [[0.1, 0.2, 0.3, 0.4], [0.0, 0.3, 0.6, 1.0]]}
    code, out = run(tmp_path, "distortion", doc)
    assert code == 2
    assert os.listdir(out) == []
    assert "quadruples[1]: hull 1.0 must be shorter than one turn" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        # a PL map has C1 = 0: its break-free bound is rounding only
        {"map": PL_MAP, "sample": {"count": 200, "scale": 1e-3}},
        {"map": PQ_MAP, "sample": {"count": 200, "scale": 3e-6}},
        # a hull of 2.3e-7 around a break of a PL map, whose K1 is 0
        {"map": PL_MAP, "quadruples": [[0.1999999, 0.2, 0.2000001, 0.20000013]]},
        {"map": PQ_MAP, "quadruples": [[0.3, 0.300001, 0.300002, 0.300003]]},
    ],
    ids=["pl-sample-1e-3", "pq-sample-3e-6", "pl-break-hull-2.3e-7", "pq-hull-3e-6"],
)
def test_small_hulls_hold_their_rounding_bounds(tmp_path, doc):
    code, out = run(tmp_path, "distortion", doc)
    assert code == 0
    assert _rows_within_their_bounds(out) > 0


@pytest.mark.parametrize(
    "coord", ["Infinity", "1e400", "NaN", "1" + "0" * 400], ids=["inf", "1e400", "nan", "int"]
)
def test_distortion_quadruple_must_be_finite(tmp_path, capsys, coord):
    # json reads each of these as a number past the float range, or as NaN
    cfg = tmp_path / "cfg.json"
    doc = {"map": PQ_MAP, "quadruples": [[0.1, 0.2, 0.3, "COORD"]]}
    cfg.write_text(json.dumps(doc).replace('"COORD"', coord))
    out = tmp_path / "out"
    out.mkdir()
    code = main(["distortion", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert os.listdir(out) == []
    assert "must be finite" in capsys.readouterr().err


def test_distortion_needs_input(tmp_path):
    code, out = run(tmp_path, "distortion", {"map": PQ_MAP})
    assert code == 2
    assert os.listdir(out) == []


def test_measure_outputs_and_determinism(tmp_path):
    doc = {
        "map": PQ_TUNED,
        "rho": {"cf": [1] * 30},
        "x0": 0.05,
        "n": 5,
        "points": 400,
    }
    code1, out1 = run(tmp_path, "measure", doc, name="m1.json")
    cfg2 = tmp_path / "m2.json"
    cfg2.write_text(json.dumps(doc))
    out2 = tmp_path / "out2"
    out2.mkdir()
    code2 = main(["measure", "--config", str(cfg2), "--out", str(out2)])
    assert code1 == 0 and code2 == 0
    for name in ("measure.json", "measure.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    rep = json.loads((out1 / "measure.json").read_text())
    assert rep["mass_sum"] == pytest.approx(1.0, abs=1e-10)
    assert abs(rep["identity_residual"]) < 1e-9
    for rank in rep["ranks"].values():
        assert rank["spread"] < 1e-10
    lines = (out1 / "measure.csv").read_text().splitlines()
    assert lines[0] == "n,rank,index,length,mass,density"
    assert len(lines) == 1 + 13


def test_measure_with_a_nudged_partition_orbit(tmp_path):
    # x0 is T^-52 of the break c: the partition nudges it, and the
    # measure orbit starts from the nudged base point
    doc = {
        "map": PQ_TUNED,
        "rho": {"cf": [1] * 30},
        "x0": 0.4483041855580787,
        "n": 8,
        "points": 3000,
    }
    code, out = run(tmp_path, "measure", doc)
    assert code == 0
    rep = json.loads((out / "measure.json").read_text())
    assert rep["mass_sum"] == pytest.approx(1.0, abs=1e-9)


def test_stale_artifacts_replaced_atomically(tmp_path):
    doc = {
        "map": {"kind": "rotation", "translation": 0.3333333333333333},
        "depth": 10,
        "estimate_n": 0,
    }
    code, out = run(tmp_path, "rotnum", doc, name="a.json")
    assert code == 0
    first = (out / "rotnum.json").read_bytes()
    (out / "rotnum.json").write_bytes(b"garbage")
    code, out = run(tmp_path, "rotnum", doc, name="a.json")
    assert code == 0
    assert (out / "rotnum.json").read_bytes() == first
    assert not [p for p in os.listdir(out) if p.startswith(".stage-")]


def _csv_text(header, rows):
    return "".join(_csv_chunks(header, rows))


def _csv_writer_text(header, rows):
    """Reference for the joined _csv_chunks: csv.writer over ``fmt`` of
    every cell."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([c if isinstance(c, str) else fmt(c) for c in row])
    return buf.getvalue()


def test_csv_text_matches_csv_writer():
    header = ["n", "q_n", "gf_gap", "dist_qn_gap", "lorenz_90_length", "case_tag"]
    floats = [0.0, -0.0, 5e-324, -1e-300, 1e300, 0.1, 2.0, math.pi, -2**53 - 0.5]
    rows = [
        (n, 2**n + 10**20 * (n % 2), "" if n % 3 else x, x, -x / 3, tag)
        for n, (x, tag) in enumerate(zip(floats, [*CASE_TAGS, "break_free"] * 2))
    ]
    rows += [(n, -n, n / 7) for n in range(5)] + [(), ("", 1.5)]
    assert _csv_text(header, rows) == _csv_writer_text(header, rows)


@pytest.mark.parametrize(
    "row",
    [
        (1, math.inf),
        (math.nan, 2),
        (1, -math.inf),
        ("a,b", 1),
        ('say "x"', 1),
        ("a\nb", 1),
        ("",),
    ],
)
def test_csv_text_refuses_what_csv_would_mangle(row):
    # non-finite values never reach a table, and no string needs quoting
    with pytest.raises(InvariantFailure):
        _csv_text(["a", "b"], [row])


@pytest.mark.parametrize(
    "count",
    [0, 1, CSV_CHUNK_LINES - 1, CSV_CHUNK_LINES, CSV_CHUNK_LINES + 1],
)
def test_csv_chunks_split_at_the_chunk_size(count):
    # the header is the first line; "predicted" mixes "" and floats
    header = ["n", "predicted", "bound", "case_tag"]
    rows = [
        (i, "" if i % 3 else i / 7, -(i**0.5), CASE_TAGS[i % len(CASE_TAGS)])
        for i in range(count)
    ]
    chunks = list(_csv_chunks(header, rows))
    assert "".join(chunks) == _csv_writer_text(header, rows)
    lines = [chunk.count("\n") for chunk in chunks]
    assert sum(lines) == count + 1
    assert lines == [CSV_CHUNK_LINES] * (len(lines) - 1) + lines[-1:]
    assert 0 < lines[-1] <= CSV_CHUNK_LINES


def test_non_finite_last_row_leaves_no_files(monkeypatch, tmp_path):
    # 4181 rows: the bad row comes after a whole chunk went to the file
    def rows_ending_in_nan(part):
        return chain(partition_rows(part), [(part.n, part.n, 0, 0.5, math.nan)])

    monkeypatch.setattr("circlebreak.cli.partition_rows", rows_ending_in_nan)
    doc = {"map": PQ_TUNED, "rho": {"cf": [1] * 20}, "n": 17}
    code, out = run(tmp_path, "partition", doc)
    assert code == 4
    assert os.listdir(out) == []


def test_write_all_removes_the_file_it_was_writing(tmp_path):
    def failing_chunks():
        yield "a,b\n"
        raise OSError("no space left on device")

    with pytest.raises(OSError):
        _write_all(tmp_path, [("x.json", ["{}\n"]), ("y.csv", failing_chunks())])
    assert os.listdir(tmp_path) == []


# Traced peak of a rank-18 `partition` run, in bytes per cell of its
# deepest partition.  Measured at 349 on Python 3.11 (522 when the CSV was
# held whole as text and every index column had its own ints); the budget
# leaves 20% headroom over the measurement.
PARTITION_PEAK_BYTES_PER_CELL = 420


def test_partition_peak_memory_per_cell(tmp_path):
    doc = {
        "map": PQ_TUNED,
        "rho": {"cf": [1] * 20},
        "n": 18,
        "refinement": True,
        "decay_n_max": 18,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code = main(["partition", "--config", str(cfg), "--out", str(tmp_path)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    gcf = ContinuedFraction.from_quotients([1] * 20)
    cells = gcf.q(19) + gcf.q(18)  # the refinement's rank 19 is the deepest
    assert cells == 10946
    assert peak <= PARTITION_PEAK_BYTES_PER_CELL * cells, peak / cells
