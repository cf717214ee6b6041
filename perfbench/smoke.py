"""Smoke test of the benchmark itself.

Usage: python3 perfbench/smoke.py

Checks, at minimum size:
  * every workload completes one operation, untraced and traced, and prints
    exactly the metrics BENCHMARK.json names, each with its unit;
  * a thread file incompatible with its tower makes `report` exit 1, and the
    benchmark counts that operation as failed instead of crashing or
    dropping it; the same file aborts a workload's set-up;
  * without the package source (only BENCHMARK.json and perfbench/), the
    benchmark exits non-zero and prints no result.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from workloads import (
    INCOMPATIBLE_LINE_THREAD,
    ROOT,
    WORKLOADS,
    SetupError,
    load_inputs,
    use_source_tree,
)

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


def check_workloads(bench: dict, problems: list) -> None:
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for name in WORKLOADS:
        for trace in (0, 1):
            done = _run(ROOT, "--workload", name, "--seed", "0", "--seconds", "0",
                        "--trace", str(trace), "--min-size")
            where = f"{name} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            before = len(problems)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: not correct: {result}")
            if units != expected[trace]:
                differ = sorted(set(expected[trace]) ^ set(units)) or units
                problems.append(f"{where}: metric names or units differ: {differ}")
            if len(problems) == before:
                print(f"ok  {where}: {result['attempted']} operations, {len(units)} metrics")


def check_incompatible_thread(problems: list) -> None:
    import ops
    import run

    spec = dict(WORKLOADS["report-line"], thread=INCOMPATIBLE_LINE_THREAD)
    out = ROOT / ".perfbench_out" / "smoke-incompatible.json"
    out.parent.mkdir(exist_ok=True)
    report = ops.ReportOps(spec, 0, out, min_size=True)
    tally = run.closed_loop(report, 0.0, {}, "smoke")
    if (tally.attempted, tally.failed) != (1, 1):
        problems.append(f"incompatible thread: attempted {tally.attempted}, failed {tally.failed}")
    else:
        print(f"ok  incompatible thread counted: fail_share {tally.failed / tally.attempted}")
    try:
        load_inputs(spec)
    except SetupError as exc:
        print(f"ok  incompatible thread aborts set-up: {exc}")
    else:
        problems.append("incompatible thread passed set-up validation")


def check_without_source(problems: list) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(bare, "--workload", "report-line", "--seed", "0", "--seconds", "1", "--trace", "0")
    last = done.stdout.strip().splitlines()[-1:] or [""]
    if done.returncode == 0 or last[0].startswith("{"):
        problems.append(f"without source: exit {done.returncode}, last line {last[0]!r}")
    else:
        print(f"ok  without source: exit {done.returncode}, no result")
    shutil.rmtree(bare)


def main() -> int:
    use_source_tree()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems: list = []
    check_workloads(bench, problems)
    check_incompatible_thread(problems)
    check_without_source(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
