"""Command line contract: subcommands, exit codes, formats, determinism."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import toruskms as tk
from toruskms.cli import main


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
    rows = tk.run_checks(("C07",), sc, bad, tk.SuiteConfig(samples=10))
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
    assert ids == {f"C{i:02d}" for i in range(1, 12)}


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


def _one_violation_line(capsys, prefix):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"constraint violated: {prefix}")
    assert captured.err.count("\n") == 1


def test_consistency_suite_fails_on_nan_theta(tmp_path, capsys):
    # the input gate stops the command; C07 itself also fails on the NaN level
    bad = _poisoned_planar(tmp_path, "theta")
    args = ["suite", "--scenario", str(bad), "--suite", "consistency", "--samples", "10"]
    assert main(args) == 1
    _one_violation_line(capsys, "level 2: theta has a non-finite entry")
    scenario = tk.scenario_from_json(json.loads(bad.read_text()))
    thread = tk.build_thread(scenario, kind="uniform")
    with np.errstate(invalid="ignore"):
        rows = tk.run_checks(("C07",), scenario, thread, tk.SuiteConfig(samples=10))
    assert not tk.overall_pass(rows)


def test_engine_fuzz_fails_on_nan_theta(tmp_path):
    # products under the NaN level keep NaN coefficients, so the fuzz row's
    # sup distance is NaN and fails instead of passing as 0
    bad = _poisoned_planar(tmp_path, "theta")
    scenario = tk.scenario_from_json(json.loads(bad.read_text()))
    thread = tk.build_thread(scenario, kind="uniform")
    rows = tk.run_checks(["C11"], scenario, thread, tk.SuiteConfig(fuzz_count=20))
    fuzz = rows[0]
    assert fuzz.quantity.startswith("engine fuzz") and fuzz.status == "fail"
    assert np.isnan(fuzz.residual)


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
