"""Command line contract: subcommands, exit codes, formats, determinism."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toruskms as tk
from toruskms import suites, toeplitz_algebra
from toruskms.cli import _MAX_ENTRIES, main


@pytest.fixture(scope="module")
def line_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    scenario = root / "scenario.json"
    scenario.write_text(
        json.dumps(
            {
                "d": 1,
                "k": 1,
                "beta": 1.0,
                "mode": "derive",
                "theta1": [[1.0]],
                "r1": [1.0],
                "D": [[2], [2], [2]],
                "E": [[[2]], [[2]], [[2]]],
            }
        )
    )
    thread = root / "thread.json"
    thread.write_text(json.dumps({"kind": "point", "y1": [0.3]}))
    return root, scenario, thread


def test_validate_ok(line_files, capsys):
    _root, scenario, thread = line_files
    code = main(["validate", "--scenario", str(scenario), "--thread", str(thread)])
    assert code == 0
    assert "OK" in capsys.readouterr().out


def test_validate_reports_broken_relation(line_files, capsys):
    root, scenario, _thread = line_files
    obj = json.loads(scenario.read_text())
    sc = tk.scenario_from_json(obj)
    bad_obj = tk.scenario_to_json(sc)
    bad_obj["levels"][1]["theta"][0][0] += 1e-6
    bad = root / "broken.json"
    bad.write_text(json.dumps(bad_obj))
    code = main(["validate", "--scenario", str(bad)])
    assert code == 1
    assert "INVALID" in capsys.readouterr().out


def test_validate_incompatible_thread_is_violation(line_files, capsys):
    root, scenario, _thread = line_files
    bad = root / "badthread.json"
    bad.write_text(json.dumps({"kind": "point", "points": [[0.3], [0.11], [0.3]]}))
    code = main(["validate", "--scenario", str(scenario), "--thread", str(bad)])
    assert code == 1


def test_parse_errors_exit_two(line_files, tmp_path, capsys):
    _root, scenario, _thread = line_files
    missing = tmp_path / "nope.json"
    assert main(["validate", "--scenario", str(missing)]) == 2
    notjson = tmp_path / "bad.json"
    notjson.write_text("not json")
    assert main(["validate", "--scenario", str(notjson)]) == 2
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"d": 1, "k": 1}))
    assert main(["validate", "--scenario", str(incomplete)]) == 2
    assert main(["state", "--scenario", str(scenario), "--word", "garbage"]) == 2
    assert (
        main(["state", "--scenario", str(scenario), "--word", "V[1] U[0] V*[1] @ 9"]) == 2
    )
    capsys.readouterr()


@pytest.mark.parametrize("word", [
    "V[1] U[99999999999999999999] V*[1] @ 1",
    "V[100000000000000000000] U[0] V*[100000000000000000000] @ 1",
])
def test_state_of_a_word_beyond_int64_exits_two_with_one_line(line_files, capsys, word):
    _root, scenario, thread = line_files
    code = main(["state", "--scenario", str(scenario), "--thread", str(thread), "--word", word])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: bad word") and err.count("\n") == 1


def test_state_oracle_past_the_panel_cap_exits_two_without_allocating(capsys):
    # U[10**9, 0] asks the quadrature rule for 85,083,083,327 panels per axis
    word = "V[0,0] U[1000000000,0] V*[0,0] @ 1"
    argv = ["state", "--scenario", str(SCENARIOS / "planar_tower.json"), "--word", word, "--oracle"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: no quadrature oracle") and err.count("\n") == 1
    assert peak < 2**25


def test_state_oracle_keeps_a_constraint_violation_at_exit_one(line_files, capsys, monkeypatch):
    # the oracle's ValueError handler must not take a ConstraintViolation for a parse error
    _root, scenario, _thread = line_files

    def violated(thread, word):
        raise tk.ConstraintViolation("level 1: r entries and beta must be positive")

    monkeypatch.setattr("toruskms.cli.psi_oracle", violated)
    assert main(["state", "--scenario", str(scenario), "--word", WORD, "--oracle"]) == 1
    _one_violation_line(capsys, "level 1: r entries and beta must be positive")


def test_point_thread_without_points_or_y1_exits_two(line_files, tmp_path, capsys):
    _root, scenario, _thread = line_files
    thread = tmp_path / "pointless.json"
    thread.write_text(json.dumps({"kind": "point"}))
    assert main(["validate", "--scenario", str(scenario), "--thread", str(thread)]) == 2
    assert "needs either points or y1" in capsys.readouterr().err


def test_state_value_and_oracle(line_files, capsys):
    _root, scenario, thread = line_files
    code = main(
        [
            "state",
            "--scenario",
            str(scenario),
            "--thread",
            str(thread),
            "--word",
            "V[1] U[2] V*[1] @ 2",
            "--oracle",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "psi(" in out
    assert "oracle" in out


def test_state_defaults_to_uniform_thread(line_files, capsys):
    _root, scenario, _thread = line_files
    code = main(
        ["state", "--scenario", str(scenario), "--word", "V[0] U[1] V*[0] @ 1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    # uniform measure kills the n = 1 moment
    assert "psi(V[0] U[1] V*[0] @ 1) = 0 +0i" in out


def test_transform_emits_moment_csv(line_files, capsys):
    _root, scenario, thread = line_files
    code = main(
        [
            "transform",
            "--scenario",
            str(scenario),
            "--thread",
            str(thread),
            "--transform",
            "nu-from-mu",
            "--level",
            "1",
            "--moment-box",
            "2",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n_1,Re,Im"
    assert len(lines) == 6
    # center row is the mass 1/(beta r) = 1
    center = [ln for ln in lines if ln.startswith("0,")]
    assert center and center[0] == "0,1,0"


def test_suite_exit_codes(line_files, capsys):
    _root, scenario, thread = line_files
    code = main(
        [
            "suite",
            "--scenario",
            str(scenario),
            "--thread",
            str(thread),
            "--suite",
            "reconcile",
            "--samples",
            "10",
            "--s-samples",
            "4",
        ]
    )
    assert code == 0
    assert "ALL CHECKS PASSED" in capsys.readouterr().out


def test_suite_failure_exits_one(line_files, tmp_path, capsys):
    _root, scenario, _thread = line_files
    # an explicit thread whose level-2 measure is unrelated to level 1:
    # compatible-looking at parse time is not required for explicit atomic
    # lists, so consistency and compatibility checks must fail
    sc = tk.scenario_from_json(json.loads(scenario.read_text()))
    good = tk.build_thread(sc, kind="point", y1=np.array([0.3]))
    measures = list(good.measures)
    measures[1] = tk.AtomicMeasure(np.array([[0.77]]), np.array([1.0]))
    bad = tk.SolenoidMeasureThread(sc, tuple(measures))
    rows = tk.run_checks(("C07",), bad, tk.SuiteConfig(samples=10))
    assert not tk.overall_pass(rows)
    capsys.readouterr()


def test_report_json_deterministic(line_files, tmp_path):
    _root, scenario, thread = line_files
    args = [
        "report",
        "--scenario",
        str(scenario),
        "--thread",
        str(thread),
        "--seed",
        "9",
        "--samples",
        "15",
        "--s-samples",
        "4",
        "--moment-box",
        "3",
    ]
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["overall_pass"] is True
    assert payload["config"]["seed"] == 9
    ids = {row["check_id"] for row in payload["checks"]}
    assert ids == {f"C{i:02d}" for i in range(1, 13)}


def test_report_csv_format(line_files, tmp_path):
    _root, scenario, thread = line_files
    out = tmp_path / "r.csv"
    code = main(
        [
            "report",
            "--scenario",
            str(scenario),
            "--thread",
            str(thread),
            "--format",
            "csv",
            "--samples",
            "10",
            "--s-samples",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.split(",")[:3] == ["check_id", "level", "quantity"]


WORD = "V[0] U[1] V*[0] @ 1"


def _exit_code_and_errors(argv, capsys):
    """main's exit code on an argparse error, and the error lines it printed."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    errors = [line for line in capsys.readouterr().err.splitlines() if "error" in line]
    return exc.value.code, errors


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--tol", "1e-3"],
        ["suite", "--suite", "kms", "--tol", "1e-3"],
        ["state", "--word", WORD, "--tol", "1e-3"],
        ["validate", "--seed", "1"],
        ["state", "--word", WORD, "--seed", "1"],
        ["transform", "--transform", "nu-from-mu", "--seed", "1"],
        ["report", "--levels", "1"],
        ["suite", "--suite", "kms", "--levels", "1"],
        ["validate", "--moment-box", "5"],
    ],
)
def test_removed_options_exit_two(line_files, capsys, argv):
    # the oracle gate is the constant ORACLE_TOL, only suite and report draw
    # random samples, so no other command takes a seed, no filter hides a
    # failing row, and validate's moment box is the constant COMPAT_RADIUS
    _root, scenario, _thread = line_files
    code, errors = _exit_code_and_errors([*argv, "--scenario", str(scenario)], capsys)
    assert code == 2
    assert errors == [f"toruskms: error: unrecognized arguments: {' '.join(argv[-2:])}"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["report", "--samples", "-3"], "--samples must be at least 1"),
        (["report", "--samples", "0"], "--samples must be at least 1"),
        (["suite", "--suite", "kms", "--samples", "-1"], "--samples must be at least 1"),
        (["report", "--s-samples", "-1"], "--s-samples must be at least 0"),
        (["report", "--moment-box", "-1"], "--moment-box must be at least 0"),
        (["suite", "--suite", "kms", "--moment-box", "-1"], "--moment-box must be at least 0"),
        (["transform", "--transform", "nu-from-mu", "--moment-box", "-1"],
         "--moment-box must be at least 0"),
        (["report", "--seed", "-1"], "--seed must be at least 0"),
    ],
)
def test_bad_sizes_exit_two_with_one_line(line_files, capsys, argv, message):
    _root, scenario, _thread = line_files
    code, errors = _exit_code_and_errors([*argv, "--scenario", str(scenario)], capsys)
    assert code == 2
    assert errors == [f"toruskms: error: {message}"]


def test_smallest_sizes_are_accepted(line_files, tmp_path, capsys):
    _root, scenario, thread = line_files
    common = ["--scenario", str(scenario), "--thread", str(thread)]
    assert main(["report", *common, "--samples", "1", "--s-samples", "0",
                 "--moment-box", "0", "--out", str(tmp_path / "r.json")]) == 0
    assert main(["transform", *common, "--transform", "nu-from-mu", "--moment-box", "0"]) == 0
    assert capsys.readouterr().out.endswith("n_1,Re,Im\n0,1,0\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["report", "--scenario", "planar_tower.json", "--moment-box", "100000"],
        ["report", "--scenario", "line_tower.json", "--samples", "1000000000"],
        ["transform", "--scenario", "planar_tower.json", "--transform", "nu-from-mu",
         "--moment-box", "100000"],
    ],
)
def test_an_oversized_option_exits_two_before_allocating(capsys, argv):
    # each asked numpy for 119 to 596 GiB and exited 1 with its memory error
    argv = [str(SCENARIOS / arg) if arg.endswith(".json") else arg for arg in argv]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {argv[-2]} {argv[-1]} needs an array of ")
    assert err.endswith(f" entries, above the cap {_MAX_ENTRIES}\n") and err.count("\n") == 1
    assert peak < 2**25


@pytest.mark.parametrize("numerator, event", [(0.0, "invalid value"), (1.0, "divide by zero")])
def test_a_floating_point_event_fails_its_check_in_one_row(
    line_files, tmp_path, monkeypatch, numerator, event
):
    # a check whose arithmetic hits 0/0 or 1/0 fails in one row naming the event,
    # and every other check still runs and the report still renders
    def divides_by_zero(scenario, thread, cfg, rng):
        ratio = np.full(1, numerator) / np.zeros(1)
        return [suites._residual_row("C08", 0, "a ratio", float(ratio[0]), 1.0)]

    checks = tuple((cid, title, divides_by_zero if cid == "C08" else fn)
                   for cid, title, fn in suites.CHECKS)
    monkeypatch.setattr(suites, "CHECKS", checks)
    _root, scenario, thread = line_files
    out = tmp_path / "report.json"
    argv = ["report", "--scenario", str(scenario), "--thread", str(thread), "--samples", "5",
            "--s-samples", "0", "--out", str(out)]
    assert main(argv) == 1
    rows = json.loads(out.read_text())["checks"]
    assert [row["check_id"] for row in rows if row["pass"] == "fail"] == ["C08"]
    (row,) = [row for row in rows if row["check_id"] == "C08"]
    assert row["quantity"] == f"floating-point event: {event} encountered in divide"
    assert row["pass"] == "fail" and np.isnan(row["residual"])
    assert {row["check_id"] for row in rows} == {cid for cid, _title, _fn in checks}


def test_console_script_installed(line_files):
    _root, scenario, _thread = line_files
    proc = subprocess.run(
        [sys.executable, "-m", "toruskms.cli", "validate", "--scenario", str(scenario)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "OK" in proc.stdout


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _poisoned_planar(tmp_path, where: str):
    """The canonical planar tower with one entry replaced by NaN or Infinity."""
    obj = json.loads((SCENARIOS / "planar_tower.json").read_text())
    if where == "theta":
        obj["levels"][1]["theta"][0][0] = float("nan")
    else:
        obj["levels"][0]["r"][0] = float("inf")
    path = tmp_path / f"planar_{where}.json"
    path.write_text(json.dumps(obj))  # json writes the NaN / Infinity literals
    return path


@pytest.mark.parametrize("where", ["theta", "r"])
def test_validate_rejects_non_finite_scenario(tmp_path, capsys, where):
    bad = _poisoned_planar(tmp_path, where)
    assert main(["validate", "--scenario", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "non-finite" in out and "INVALID" in out


@pytest.mark.parametrize("field", ["theta1", "r1"])
def test_validate_lists_an_infinite_derive_seed_without_a_warning(tmp_path, capsys, field):
    # every level derives from the seed, so each relation defect is inf - inf
    obj = json.loads((SCENARIOS / "line_tower.json").read_text())
    obj[field] = [[float("inf")]] if field == "theta1" else [float("inf")]
    bad = tmp_path / "line_inf.json"
    bad.write_text(json.dumps(obj))
    assert main(["validate", "--scenario", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "non-finite" in out and "INVALID" in out
    assert out.count("differs from") == 3 and "by nan" in out


@pytest.mark.parametrize("value", [float("inf"), float("-inf")], ids=["inf", "-inf"])
@pytest.mark.parametrize("level", [2, 3])
def test_an_infinite_explicit_theta_is_listed_without_a_warning(tmp_path, capsys, level, value):
    # the relation D_(m-1) theta_m E_(m-1) meets the infinite entry with E's
    # zeros as well, and inf * 0 is NaN: a violation, not a RuntimeWarning
    obj = json.loads((SCENARIOS / "planar_tower.json").read_text())
    obj["levels"][level - 1]["theta"][0][0] = value
    bad = tmp_path / "planar_inf.json"
    bad.write_text(json.dumps(obj))
    assert main(["validate", "--scenario", str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"level {level}: theta has a non-finite entry" in out and out.endswith("INVALID\n")
    assert main(["report", "--scenario", str(bad), "--samples", "5", "--s-samples", "1"]) == 1
    _one_violation_line(capsys, f"level {level}: theta has a non-finite entry")


def _one_violation_line(capsys, prefix):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"constraint violated: {prefix}")
    assert captured.err.count("\n") == 1


def test_consistency_suite_fails_on_nan_theta(tmp_path, capsys):
    # the input gate stops the command; in the library, the thread builds the
    # NaN level's block when it is made, so no check can run on that tower
    bad = _poisoned_planar(tmp_path, "theta")
    args = ["suite", "--scenario", str(bad), "--suite", "consistency", "--samples", "10"]
    assert main(args) == 1
    _one_violation_line(capsys, "level 2: theta has a non-finite entry")
    scenario = tk.scenario_from_json(json.loads(bad.read_text()))
    with pytest.raises(tk.ConstraintViolation, match="level 2: theta, r and beta must be finite"):
        tk.build_thread(scenario, kind="uniform")


def test_engine_fuzz_fails_on_nan_theta(tmp_path):
    # no thread, so no C11 run, exists on the NaN tower; the kernels keep the
    # rule: a product under a NaN theta has NaN coefficients, so its gaps to
    # any product are NaN, which fails a fuzz row instead of passing as 0
    bad = _poisoned_planar(tmp_path, "theta")
    scenario = tk.scenario_from_json(json.loads(bad.read_text()))
    with pytest.raises(tk.ConstraintViolation, match="level 2"):
        tk.build_thread(scenario, kind="uniform")
    # one element each: x = U_(1,1) V*_(1,0) and y = V_(0,1) U_(1,-1)
    one = np.ones((1, 1), complex)
    x = toeplitz_algebra._batch(*np.array([[[[0, 0]]], [[[1, 1]]], [[[1, 0]]]]), one)
    y = toeplitz_algebra._batch(*np.array([[[[0, 1]]], [[[1, -1]]], [[[0, 0]]]]), one)
    theta = scenario.level(2).theta
    gaps = toeplitz_algebra._gaps(
        toeplitz_algebra._product(x, y, theta),
        toeplitz_algebra._product(x, y, np.nan_to_num(theta)),
    )
    assert gaps.size and np.isnan(gaps).all()


@pytest.mark.parametrize("where", ["theta", "r"])
def test_report_on_non_finite_tower_is_a_one_line_violation(tmp_path, capsys, where):
    bad = _poisoned_planar(tmp_path, where)
    args = ["report", "--scenario", str(bad), "--samples", "5", "--s-samples", "1"]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("constraint violated: level ") and "finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("where", ["theta", "r"])
def test_reconcile_suite_on_non_finite_tower_is_a_one_line_violation(tmp_path, capsys, where):
    # C08 samples no scenario data off d = k = 1, but must still reject the tower
    bad = _poisoned_planar(tmp_path, where)
    assert main(["suite", "--scenario", str(bad), "--suite", "reconcile"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("constraint violated: level ") and "finite" in err
    assert err.count("\n") == 1


def test_state_on_nan_theta_exits_one(tmp_path, capsys):
    bad = _poisoned_planar(tmp_path, "theta")
    assert main(["state", "--scenario", str(bad), "--word", "V[0,0] U[1,0] V*[0,0] @ 2"]) == 1
    _one_violation_line(capsys, "level 2: theta has a non-finite entry")


def test_state_flags_a_non_finite_value(line_files, capsys, monkeypatch):
    _root, scenario, thread = line_files
    monkeypatch.setattr("toruskms.cli.psi_eval", lambda thread, word: complex(np.nan, 0.0))
    args = ["state", "--scenario", str(scenario), "--thread", str(thread), "--word", WORD]
    assert main(args) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "NON-FINITE VALUE"


def test_report_on_bent_tower_is_a_one_line_violation(tmp_path, capsys):
    # a level relation off by 1e-3 and the default uniform thread pass every
    # check, but every command holds its inputs to validate's gate
    obj = json.loads((SCENARIOS / "planar_tower.json").read_text())
    obj["levels"][1]["theta"][0][0] += 1e-3
    bent = tmp_path / "bent.json"
    bent.write_text(json.dumps(obj))
    assert main(["validate", "--scenario", str(bent)]) == 1
    assert capsys.readouterr().out.endswith("INVALID\n")
    args = ["report", "--scenario", str(bent), "--samples", "5", "--s-samples", "1"]
    assert main(args) == 1
    _one_violation_line(capsys, "levels 1->2: D_m theta_(m+1) E_m differs from theta_m")


def test_validate_rejects_a_thread_off_by_4e_11(tmp_path, capsys):
    # 4e-11 passes the loader's 1e-10 point check; the moment gate on
    # |n_i| <= COMPAT_RADIUS amplifies it past COMPAT_TOL
    scenario = tk.scenario_from_json(json.loads((SCENARIOS / "line_tower.json").read_text()))
    good = tk.build_thread(scenario, kind="point", y1=np.array([0.3]))
    points = [measure.points[0].tolist() for measure in good.measures]
    points[-1][0] += 4e-11
    off = tmp_path / "off.json"
    off.write_text(json.dumps({"kind": "point", "points": points}))
    common = ["--scenario", str(SCENARIOS / "line_tower.json"), "--thread", str(off)]
    assert main(["validate", *common]) == 1
    assert "levels 3->4: compatibility defect" in capsys.readouterr().out
    assert main(["state", *common, "--word", "V[0] U[1] V*[0] @ 1"]) == 1
    _one_violation_line(capsys, "levels 3->4: compatibility defect")


@pytest.mark.parametrize("thread", [
    {"kind": "point", "y1": [0.3, 0.55]},
    {"kind": "toplevel", "toplevel_measure": {"atoms": [{"x": [0.1, 0.2], "w": 1.0}]}},
], ids=["point", "toplevel"])
def test_a_singular_E_is_a_violation_with_a_thread(tmp_path, capsys, thread):
    # the scenario is validated before a thread is built on it, so the
    # thread's lift through E never runs into the singular matrix
    obj = json.loads((SCENARIOS / "planar_tower.json").read_text())
    obj["E"][1] = [[1, 1], [1, 1]]
    (tmp_path / "singular.json").write_text(json.dumps(obj))
    (tmp_path / "thread.json").write_text(json.dumps(thread))
    common = ["--scenario", str(tmp_path / "singular.json"),
              "--thread", str(tmp_path / "thread.json")]
    assert main(["validate", *common]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith("level 2: det E = 0 < 2\n") and captured.err == ""
    assert captured.out.endswith("INVALID\n")
    assert main(["report", *common, "--samples", "5", "--s-samples", "1"]) == 1
    _one_violation_line(capsys, "level 2: det E = 0 < 2")


def _line_with_nan(tmp_path, field: str):
    """The canonical line tower with level 2's D or E entry replaced by NaN."""
    obj = json.loads((SCENARIOS / "line_tower.json").read_text())
    obj[field][1] = [float("nan")] if field == "D" else [[float("nan")]]
    path = tmp_path / f"line_nan_{field}.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize(
    "field, message",
    [("D", "D must have integer diagonal entries"), ("E", "E must be an integer matrix")],
    ids=["D", "E"],
)
@pytest.mark.parametrize(
    "command",
    [
        ["validate"],
        ["state", "--word", "V[0] U[1] V*[0] @ 2", "--oracle"],
        ["suite", "--suite", "consistency", "--samples", "5"],
    ],
    ids=["validate", "state-oracle", "suite"],
)
def test_nan_in_D_or_E_is_a_bad_scenario(tmp_path, capsys, field, message, command):
    bad = _line_with_nan(tmp_path, field)
    assert main([command[0], "--scenario", str(bad), *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad scenario in ") and message in captured.err
    assert captured.err.count("\n") == 1


def _numeric_leaves(obj, path=()):
    """The path of every float or int in a parsed JSON object."""
    if isinstance(obj, dict):
        obj = obj.items()
    elif isinstance(obj, list):
        obj = enumerate(obj)
    else:
        yield path
        return
    for key, value in obj:
        yield from _numeric_leaves(value, (*path, key))


# each tower's point thread y1, and a word at level 2
_POISON_TOWERS = {
    "line": ([0.3], "V[0] U[1] V*[0] @ 2"),
    "planar": ([0.3, 0.55], "V[0,0] U[1,0] V*[0,0] @ 2"),
}


def _poison_cases():
    """(tower, thread form, file, path) for each numeric field the loaders read.

    The line tower is in derive mode and reads theta1, r1, beta, D and E.  The
    planar tower is in explicit mode and never reads theta1 or r1, so they are
    left out; its levels' theta and r are poisoned instead.  Each tower's point
    thread is given by its y1, or by the points at every level.
    """
    cases = []
    for tower, (y1, _word) in _POISON_TOWERS.items():
        obj = json.loads((SCENARIOS / f"{tower}_tower.json").read_text())
        fields = ("beta", "D", "E") + (("theta1", "r1") if tower == "line" else ("levels",))
        for field in fields:
            paths = _numeric_leaves(obj[field], (field,))
            cases += [(tower, "y1", "scenario", path) for path in paths]
        cases += [(tower, "y1", "thread", ("y1", i)) for i in range(len(y1))]
        depth = len(obj["D"])
        cases += [(tower, "points", "thread", ("points", m, i))
                  for m in range(depth) for i in range(len(y1))]
    return cases


_POISON_CASES = _poison_cases()
_POISON_COMMANDS = {
    "validate": ["validate"],
    "state": ["state", "--word", "{word}", "--oracle"],
    "suite": ["suite", "--suite", "consistency", "--samples", "5"],
    "report": ["report", "--samples", "5", "--s-samples", "1", "--moment-box", "2"],
}


@pytest.fixture(scope="module")
def poison_inputs(tmp_path_factory):
    """A directory to write poisoned files to, and each tower's parsed files."""
    towers = {}
    for tower, (y1, _word) in _POISON_TOWERS.items():
        obj = json.loads((SCENARIOS / f"{tower}_tower.json").read_text())
        good = tk.build_thread(tk.scenario_from_json(obj), kind="point", y1=np.array(y1))
        points = [measure.points[0].tolist() for measure in good.measures]
        threads = {"y1": {"kind": "point", "y1": y1}, "points": {"kind": "point", "points": points}}
        towers[tower] = obj, threads
    return tmp_path_factory.mktemp("poison"), towers


@pytest.mark.parametrize("form", ["y1", "points"])
@pytest.mark.parametrize("tower", ["line", "planar"])
def test_the_unpoisoned_inputs_pass(poison_inputs, tower, form, capsys):
    # so the property below poisons inputs that pass, in each of their forms
    root, towers = poison_inputs
    scenario, threads = towers[tower]
    (root / "scenario.json").write_text(json.dumps(scenario))
    (root / "thread.json").write_text(json.dumps(threads[form]))
    common = ["--scenario", str(root / "scenario.json"), "--thread", str(root / "thread.json")]
    assert main(["validate", *common]) == 0
    assert main(["state", *common, "--word", _POISON_TOWERS[tower][1], "--oracle"]) == 0
    assert capsys.readouterr().err == ""


@settings(max_examples=240, deadline=None)
@given(
    case=st.sampled_from(_POISON_CASES),
    value=st.sampled_from([float("nan"), float("inf"), float("-inf")]),
    command=st.sampled_from(sorted(_POISON_COMMANDS)),
)
def test_a_poisoned_input_never_exits_zero(poison_inputs, case, value, command):
    root, towers = poison_inputs
    tower, form, target, path = case
    scenario, threads = towers[tower]
    files = {"scenario": copy.deepcopy(scenario), "thread": copy.deepcopy(threads[form])}
    leaf = files[target]
    for key in path[:-1]:
        leaf = leaf[key]
    leaf[path[-1]] = value
    for name, obj in files.items():
        (root / f"{name}.json").write_text(json.dumps(obj))  # json writes NaN and Infinity
    argv = [part.format(word=_POISON_TOWERS[tower][1]) for part in _POISON_COMMANDS[command]]
    argv += ["--scenario", str(root / "scenario.json"), "--thread", str(root / "thread.json")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code != 0, (case, value, command, out.getvalue())
    assert err.getvalue().count("\n") <= 1, err.getvalue()


def test_report_options_default_to_suite_config(line_files, capsys, monkeypatch):
    # SuiteConfig writes the four defaults once; report --help and the JSON echo read them
    _root, scenario, _thread = line_files
    with pytest.raises(SystemExit):
        main(["report", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for text in ("word samples per check (default 100)",
                 "continuous defect samples per level (default 50)",
                 "moment box radius (default 5)", "report seed (default 0)"):
        assert text in help_text
    configs = []
    monkeypatch.setattr("toruskms.cli.run_checks",
                        lambda check_ids, thread, cfg: configs.append(cfg) or [])
    assert main(["report", "--scenario", str(scenario)]) == 0
    echo = json.loads(capsys.readouterr().out)["config"]
    assert configs == [tk.SuiteConfig()]
    defaults = dataclasses.asdict(tk.SuiteConfig())
    assert {name: echo[name] for name in defaults} == defaults


def test_an_unknown_suite_exits_two(line_files, capsys):
    _root, scenario, _thread = line_files
    code, errors = _exit_code_and_errors(
        ["suite", "--suite", "nope", "--scenario", str(scenario)], capsys
    )
    assert code == 2
    assert len(errors) == 1 and "invalid choice: 'nope'" in errors[0]


@pytest.mark.parametrize("atoms, message", [
    ([{"x": [0.1, 0.2], "w": 1.0}], "dimension does not match the scenario"),
    ([{"x": [0.1], "w": 0.6}, {"x": [0.7], "w": 0.3}], "must be a probability measure"),
    ([{"x": [0.1], "w": 1.5}, {"x": [0.7], "w": -0.5}], "negative or complex weights"),
], ids=["dimension", "mass", "sign"])
def test_a_toplevel_thread_that_is_no_probability_measure_is_a_violation(
    tmp_path, capsys, atoms, message
):
    thread = tmp_path / "toplevel.json"
    thread.write_text(json.dumps({"kind": "toplevel", "toplevel_measure": {"atoms": atoms}}))
    common = ["--scenario", str(SCENARIOS / "line_tower.json"), "--thread", str(thread)]
    for command in (["validate"], ["state", "--word", WORD],
                    ["report", "--samples", "5", "--s-samples", "1"]):
        assert main([*command, *common]) == 1, command
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"constraint violated: thread {thread}: toplevel measure")
        assert message in captured.err


def _malformed(case: str):
    """(file, parsed JSON, text its error names) for one malformed loader input."""
    line = json.loads((SCENARIOS / "line_tower.json").read_text())
    if case == "derive scenario without theta1":
        del line["theta1"]
        return "scenario", line, "'theta1'"
    if case == "explicit level without r":
        explicit = tk.scenario_to_json(tk.scenario_from_json(line))
        del explicit["levels"][1]["r"]
        return "scenario", explicit, "'r'"
    if case.startswith("point thread"):
        field = "y1" if "y1" in case else "points"
        return "thread", {"kind": "point", field: {"a": 1} if field == "y1" else 3}, f'"{field}"'
    atom = {
        "atom without w": {"x": [0.7]},
        "atom that is not an object": [0.7, 0.0],
        "atom whose x is a scalar": {"x": 0.7, "w": 0.0},
    }[case]
    atoms = [{"x": [0.1], "w": 1.0}, atom]
    return "thread", {"kind": "toplevel", "toplevel_measure": {"atoms": atoms}}, "atom 1"


@pytest.mark.parametrize("case", [
    "derive scenario without theta1", "explicit level without r", "atom without w",
    "atom that is not an object", "atom whose x is a scalar",
    "point thread whose y1 is an object", "point thread whose points is a number",
])
def test_a_malformed_loader_input_is_bad_input_naming_the_field(tmp_path, capsys, case):
    target, obj, name = _malformed(case)
    line = json.loads((SCENARIOS / "line_tower.json").read_text())
    files = {"scenario": line, "thread": {"kind": "uniform"}, target: obj}
    with pytest.raises(ValueError, match=name) as info:
        scenario = tk.scenario_from_json(files["scenario"])
        tk.thread_from_json(files["thread"], scenario)
    assert not isinstance(info.value, tk.ConstraintViolation)
    for key, value in files.items():
        (tmp_path / f"{key}.json").write_text(json.dumps(value))
    path = tmp_path / f"{target}.json"
    assert main(["validate", "--scenario", str(tmp_path / "scenario.json"),
                 "--thread", str(tmp_path / "thread.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad {target} in {path}: ") and name in captured.err
    assert captured.err.count("\n") == 1
