"""Mutants of the closed form that the suites must catch.

Each mutant is patched in at run time with pytest's monkeypatch, so no file
is copied or edited.  A check can only see a closed-form bug if its reference
route does not share the mutated code: the quadrature oracle computes
(theta n)_j from the raw theta, so a phase bug in ``BlockParams.theta_dot``
moves the closed form and not the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

import toruskms as tk


def _theta_dot_mod_one(self, n):
    # psi depends on theta n, not on (theta mod 1) n: a phase bug
    return np.asarray(n, dtype=float) @ np.mod(self.theta, 1.0).T


@pytest.mark.parametrize("tower", ["line", "planar"])
def test_theta_mod_one_fails_the_quadrature_check(tower, monkeypatch, request):
    scenario = request.getfixturevalue(f"{tower}_scenario")
    thread = request.getfixturevalue(f"{tower}_uniform_thread")
    cfg = tk.SuiteConfig(samples=2, s_samples=0, moment_box=1)
    assert tk.overall_pass(tk.run_checks(("C01",), scenario, thread, cfg))
    monkeypatch.setattr(tk.BlockParams, "theta_dot", _theta_dot_mod_one)
    rows = tk.run_checks(("C01",), scenario, thread, cfg)
    assert not tk.overall_pass(rows)
    assert rows[0].residual > 1e-3
