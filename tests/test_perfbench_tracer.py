"""The per-layer tracer of perfbench/ still fits the package.

``perfbench/tracing.py`` looks up package functions, classes and module
attributes by name.  A rename in the package would otherwise surface only
when the benchmark runs; here one traced minimum-size report must run, and
``uninstall`` must put every original back.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import toruskms as tk
import toruskms.cli
from toruskms import oracle, suites, torus_measure

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    path = ROOT / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _originals(tracing):
    found = {(mod, attr): getattr(sys.modules[mod], attr) for mod, attr, _ in tracing.FUNCTIONS}
    for clsname, _ in tracing.MOMENT_CLASSES:
        found[(clsname, "moment")] = getattr(torus_measure, clsname).__dict__["moment"]
    found[("FockTruncation", "for_params")] = oracle.FockTruncation.__dict__["for_params"]
    found[("suites", "CHECKS")] = suites.CHECKS
    found[("toruskms", "CHECKS")] = tk.CHECKS
    return found


def test_traced_min_size_report_runs_and_uninstall_restores(tmp_path):
    tracing = _load("tracing")
    min_args = _load("workloads").MIN_REPORT_ARGS
    before = _originals(tracing)
    recorder = tracing.Recorder()
    recorder.install()
    try:
        assert _originals(tracing) != before
        code = toruskms.cli.main([
            "report", "--scenario", str(ROOT / "scenarios" / "line_tower.json"),
            "--thread", str(ROOT / "scenarios" / "point_thread.json"), *min_args,
            "--format", "json", "--out", str(tmp_path / "report.json"),
        ])
    finally:
        recorder.uninstall()
    assert code == 0
    assert _originals(tracing) == before
    names = {span[3] for span in recorder.spans}
    assert {"cli.main", "suites.C04", "torus_measure.positivity_test"} <= names
