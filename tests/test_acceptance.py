"""Acceptance gate: every verification check at its stated tolerance.

Each test prints exactly one PASS/FAIL line for its criterion; run with
``pytest tests/test_acceptance.py -v -s`` to see them all.  A FAIL line is
always accompanied by a test failure naming the offending rows.
"""

from __future__ import annotations

import time

import toruskms as tk

# default config: 100 state pairs, 50 s-samples, box radius 5, 500 fuzz draws
CONFIG = tk.SuiteConfig()


def _run(check_id, thread):
    return tk.run_checks((check_id,), thread, CONFIG)


def _report(num, label, rows, extra=""):
    ok = all(r.status != "fail" for r in rows)
    worst = max((r.residual for r in rows if r.status != "skip"), default=0.0)
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{verdict}] {label} "
          f"(rows={len(rows)}, worst residual={worst:.3e}{extra})")
    assert ok, f"criterion {num} failed: " + "; ".join(
        f"{r.quantity} (residual={r.residual:.3e}, bound={r.bound:.3e})"
        for r in rows
        if r.status == "fail"
    )


def test_criterion_01_transform_oracle(line_point_thread):
    start = time.perf_counter()
    rows = _run("C01", line_point_thread)
    elapsed = time.perf_counter() - start
    _report(
        1,
        "transform vs quadrature oracle, 20 random blocks, |n_i| <= 3, tol 1e-6",
        rows,
        extra=f", elapsed={elapsed:.2f}s",
    )
    assert elapsed <= 30.0


def test_criterion_02_mass_identities(line_point_thread):
    rows = _run("C02", line_point_thread)
    _report(2, "mass identities in both directions at 1e-12", rows)


def test_criterion_03_round_trips(line_point_thread):
    rows = _run("C03", line_point_thread)
    _report(3, "moment round trips, both compositions, at 1e-10", rows)


def test_criterion_04_subinvariance_positivity(line_point_thread):
    rows = _run("C04", line_point_thread)
    _report(
        4,
        "positivity of induced measures and defects (50 s-samples + lattice "
        "points) at 1e-8",
        rows,
    )


def test_criterion_05_kms_residuals(line_point_thread):
    rows = _run("C05", line_point_thread)
    _report(5, "twisted-trace residuals, 100 spanning pairs per level, at 1e-10", rows)


def test_criterion_06_fock_agreement(line_point_thread):
    rows = _run("C06", line_point_thread)
    _report(
        6,
        "closed form vs truncated Fock on 50 random words within the "
        "geometric tail bound (<= 1e-8)",
        rows,
    )


def test_criterion_07_level_consistency(line_point_thread, planar_point_thread):
    rows = _run("C07", line_point_thread)
    rows += _run("C07", planar_point_thread)
    _report(
        7,
        "level consistency of the limit state, 100 words per junction, "
        "line and planar towers, at 1e-10",
        rows,
    )


def test_criterion_08_reconciliation(line_point_thread):
    rows = _run("C08", line_point_thread)
    _report(8, "d = k = 1 closed-form route reconciliation, 20 tuples, at 1e-10", rows)


def test_criterion_09_geometric_inverse(line_point_thread):
    rows = _run("C09", line_point_thread)
    _report(
        9,
        "geometric-series inverse recovers nu within the closed-form tail bound",
        rows,
    )


def test_criterion_10_limit_convergence(line_point_thread):
    rows = _run("C10", line_point_thread)
    _report(
        10,
        "scaled-defect limit: empirical order >= 0.9 and n = 0 mass from below",
        rows,
    )


def test_criterion_11_engine_fuzz(line_point_thread):
    rows = _run("C11", line_point_thread)
    _report(
        11,
        "engine fuzz, 500 instances at 1e-12, plus 20 dense-matrix products",
        rows,
    )


def test_criterion_12_psi_oracle(
    line_scenario, line_point_thread, planar_scenario, planar_point_thread
):
    rows = _run("C12", line_point_thread)
    rows += _run("C12", planar_point_thread)
    _report(
        12,
        "solenoid state vs quadrature, 10 diagonal words per level, "
        "line and planar towers, at 1e-6",
        rows,
    )
    assert len(rows) == line_scenario.depth + planar_scenario.depth
