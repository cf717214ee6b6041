"""Workload definitions and input loading for the toruskms benchmark.

This module imports only the standard library at load time, so that a fresh
process can time the import of ``toruskms`` itself (see ``setup_probe.py``).
Every path is relative to the repository root; the benchmark runs with the
root as its working directory, so the paths echoed into each report (and so
the report digests) do not depend on where the checkout lives.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Settings of the warm-up operation and of --min-size runs: every check still
# runs, on tiny moment boxes and sample counts.
MIN_REPORT_ARGS = ("--samples", "2", "--s-samples", "0", "--moment-box", "1")

WORKLOADS = {
    "report-line": {
        "kind": "report",
        "scenario": "scenarios/line_tower.json",
        "thread": "scenarios/point_thread.json",
        "report_args": (),
    },
    "report-planar": {
        "kind": "report",
        "scenario": "scenarios/planar_tower.json",
        "thread": None,
        "report_args": (),
    },
    # A full-size report (--s-samples 50 --moment-box 5) takes minutes at
    # d = 3.  Box radius 4 keeps 125 x 125 moment matrices, so the positivity
    # certificate (C04) still dominates the report.
    "report-cubic": {
        "kind": "report",
        "scenario": "perfbench/data/cubic_tower.json",
        "thread": "perfbench/data/cubic_thread.json",
        "report_args": ("--s-samples", "1", "--moment-box", "4"),
    },
    # Relative weights of the four query kinds and the moment-table radius;
    # every query is cross-checked against quadrature within tol, as
    # `toruskms state --oracle` does.
    "query-planar": {
        "kind": "query",
        "scenario": "scenarios/planar_tower.json",
        "thread": "perfbench/data/planar_point_thread.json",
        "query_mix": {"psi_eval": 3, "state_eval": 3, "moment_chain": 3, "moment_table": 1},
        "table_radius": 3,
        "tol": 1e-6,
    },
}

# A point thread for the line tower whose levels break E^T y_(m+1) = y_m;
# `toruskms report` must exit 1 on it.
INCOMPATIBLE_LINE_THREAD = "perfbench/data/incompatible_line_thread.json"


class SetupError(Exception):
    """The workload's inputs fail to load or to validate."""


def use_source_tree() -> None:
    """Put the checkout's own ``src`` first on the import path.

    Raises SetupError when the checkout has no package source, so the
    benchmark never measures some other installed copy.
    """
    if not (SRC / "toruskms" / "__init__.py").is_file():
        raise SetupError(f"no package source under {SRC}")
    sys.path.insert(0, str(SRC))


def load_inputs(spec: dict):
    """Import toruskms, load the workload's scenario and thread, validate both.

    Returns (scenario, thread).  Raises SetupError when either input is
    rejected by its loader, by ``validate_scenario`` or by ``validate_thread``.
    """
    from toruskms.scenario import scenario_from_json, validate_scenario
    from toruskms.solenoid_limit import build_thread, thread_from_json, validate_thread

    try:
        with open(ROOT / spec["scenario"], encoding="utf-8") as fh:
            scenario = scenario_from_json(json.load(fh))
        problems = validate_scenario(scenario)
        if spec["thread"] is None:
            thread = build_thread(scenario, kind="uniform")
        else:
            with open(ROOT / spec["thread"], encoding="utf-8") as fh:
                thread = thread_from_json(json.load(fh), scenario)
    except Exception as exc:
        raise SetupError(f"cannot load {spec['scenario']} / {spec['thread']}: {exc}") from exc
    problems += validate_thread(thread)
    if problems:
        raise SetupError("; ".join(problems))
    return scenario, thread
