"""Mutants of the closed form that the suites must catch.

Each mutant is patched in at run time with pytest's monkeypatch, so no file
is copied or edited.  A check can only see a closed-form bug if its reference
route does not share the mutated code: the quadrature oracle computes
(theta n)_j from the raw theta, so a phase bug in ``BlockParams.theta_dot``
moves the closed form and not the oracle.

The mutants below run at a reduced configuration on the line tower with its
point thread and on the planar tower with ``planar_point_thread.json``; the
planar uniform thread's moments vanish off n = 0, which hides phase bugs.

| mutant                                          | fails              |
| ----------------------------------------------- | ------------------ |
| ``BlockParams.theta_dot`` of theta mod 1        | C01                |
| ``state_eval`` without e^(-beta p.r)            | C06                |
| the batched state ``_state_values`` without it  | C05, C12           |
| +2 pi i in ``_laplace_factors``                 | C01, C04, C10      |
| conjugated phase in ``defect_measure_cts``      | C04                |
| conjugated phase in ``_step_factors``           | C04, C06, C09, C10 |
| normalization constant c_m dropped or doubled   | C12                |
| c_m taken from the next level                   | C07, C12           |
| dynamics kernel ``_dynamics`` with t negated    | C05                |
| the join as a min in the product kernel         | stops C11 (Word)   |
| quadrature partner rows without the conjugate   | C01                |

The word engine is one set of array kernels in ``toeplitz_algebra``:
``multiply``, ``adjoint`` and ``apply_dynamics`` are their one-element case,
and C05 and C11 call the kernels on whole batches, so the mutants patch the
kernels.  C05 catches the reversed dynamics at 10 word pairs per level
because it draws each b with q_b - p_b = p_a - q_a: ab has gauge degree 0,
so phi(ab) need not vanish.  The product kernel with its join as a min
builds words with negative exponents; every engine word passes ``Word``'s
checks, so C11's dense operator check stops on the ``ValueError`` for a
negative q (``report`` exits 1), or a row fails.

Every state value of C05, C07 and C12 comes from one batched kernel,
``_state_values``; ``state_eval`` and ``psi_eval`` are its one-element case.
The kernel without its weight e^(-beta p.r) fails C05, whose pairs twist
by e^(-beta (p_a - q_a).r) < 1 where the state no longer weights the words
back, and C12, whose quadrature route keeps the weight.  C07 cannot see it:
the embedding multiplies p by D_m and r by D_m^(-1), so p.r, and with it
the weight, is the same on both levels.

The quadrature oracle is mutated too: C01 integrates each of its blocks in
one batch, where a row whose negation came earlier takes the conjugate of
that row's integral.  Skipping the conjugate breaks every such row whose
(theta n)_j is nonzero, on any tower, since C01 draws its own blocks.

The geometric pair and both defect measures share ``_step_factors``, so its
conjugated phase reaches four checks: C04 through the continuous defect, C06
through ``nu_from_kappa`` against the Fock oracle, C09 through
``kappa_from_nu`` against the truncated series, and C10 through
``numeric_limit_mu``.  C03 composes each transform with its inverse, which
cancels the mutant.

One mutant is equivalent in exact arithmetic and has no test: dropping the
``np.mod(theta, 1.0)`` in ``toeplitz_algebra._product``.  Every phase exponent
there pairs theta with integer vectors on both sides, so shifting theta by
integers changes each phase by a multiple of 2 pi.  The reduction only keeps
the exponents O(1), so rounding stays off the phases.  With it dropped, every
check passes on the line tower at the configuration below; on planar only
the C11 fuzz row fails, at 1.17e-12 against its 1e-12 gate, from the
rounding of the larger exponents alone (the plain-Python engine that the
kernels replaced gave the same).  A margin of rounding is no semantic check,
so no test relies on it.
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import toruskms as tk
from toruskms import oracle, solenoid_limit, subinvariance, suites, toeplitz_algebra

ROOT = Path(__file__).resolve().parent.parent
CFG = tk.SuiteConfig(samples=10, s_samples=5, moment_box=3)
TOWERS = {
    "line": ("scenarios/line_tower.json", "scenarios/point_thread.json"),
    "planar": ("scenarios/planar_tower.json", "perfbench/data/planar_point_thread.json"),
}


@pytest.fixture(autouse=True)
def _small_fuzz(monkeypatch):
    """C11 draws 40 engine instances here, not the report's FUZZ_COUNT."""
    monkeypatch.setattr(suites, "FUZZ_COUNT", 40)


def _load(tower):
    # a fresh thread per test: a thread builds each level's normalized measure
    # when it is made, so a shared one would carry a mutant's measure into
    # later tests, and a test of a mutant builds its thread after the patch
    scenario_file, thread_file = TOWERS[tower]
    scenario = tk.scenario_from_json(json.loads((ROOT / scenario_file).read_text()))
    return tk.thread_from_json(json.loads((ROOT / thread_file).read_text()), scenario)


def _patch(monkeypatch, owner, name, mutant):
    """Bind mutant to name on owner and in every toruskms module that imported the original."""
    original = getattr(owner, name)
    monkeypatch.setattr(owner, name, mutant)
    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "toruskms" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, mutant)


def _theta_dot_mod_one(self, n):
    # psi depends on theta n, not on (theta mod 1) n: a phase bug
    return np.asarray(n, dtype=float) @ np.mod(self.theta, 1.0).T


def _state_without_weight(nu, params, a):
    return complex(sum(c * nu.moment(w.n) for w, c in a.terms.items() if w.p == w.q))


def _laplace_factors_plus(params, N):
    return params.beta * params.r + subinvariance.TWO_PI_I * params.theta_dot(N)


def _step_factors_conjugated(steps, params, N):
    # e^(-2 pi i s.(theta n)) in place of e^(2 pi i s.(theta n))
    phases = params.theta_dot(N) @ (subinvariance.TWO_PI_I * steps).T
    return 1.0 - np.exp((-params.beta * steps) @ params.r - phases)


_DEFECT_CTS = subinvariance.defect_measure_cts
_NORMALIZED = solenoid_limit._normalized_average


def _defect_cts_conjugated(nu, s, params):
    # the multiplier at -n is the one with e^(-2 pi i s_j (theta n)_j)
    multiplier = _DEFECT_CTS(nu, s, params).multiplier
    return tk.MultipliedMeasure(nu, lambda N: multiplier(-N), tag="mutant")


def _normalized_without_c(mu, params):
    return tk.nu_from_mu(mu, params, check=False)


def _normalized_doubled(mu, params):
    return tk.MultipliedMeasure(_NORMALIZED(mu, params), lambda N: 2.0, tag="mutant")


def _state_with_next_levels_c(thread, m):
    # nu_m scaled by c of level m + 1 (of level 1 at the top) instead of c_m
    params = tk.BlockParams.at_level(thread.scenario, m)
    other = tk.BlockParams.at_level(thread.scenario, m % thread.scenario.depth + 1)
    nu = tk.nu_from_mu(thread.measure(m), params, check=False)
    return params, tk.MultipliedMeasure(nu, lambda N: other.mass_factor(), tag="mutant")


_DYNAMICS = toeplitz_algebra._dynamics


def _dynamics_reversed(x, t, r):
    return _DYNAMICS(x, -t, r)


def _product_min_join():
    """The product kernel recompiled from its source with the join q v p' taken as a min."""
    source = inspect.getsource(toeplitz_algebra._product)
    assert source.count("np.maximum") == 1
    namespace = dict(vars(toeplitz_algebra))
    exec(source.replace("np.maximum", "np.minimum"), namespace)
    return namespace["_product"]


def _state_values_unweighted():
    """The batched state kernel recompiled from its source with e^(-beta p.r) taken as 1."""
    source = inspect.getsource(toeplitz_algebra._state_values)
    assert source.count("np.exp(-params.beta * ") == 1
    namespace = dict(vars(toeplitz_algebra))
    exec(source.replace("np.exp(-params.beta * ", "np.exp(0.0 * "), namespace)
    return namespace["_state_values"]


def _quadrature_without_conjugate():
    """The batch quadrature recompiled from its source with the partner rows' conjugate skipped."""
    source = inspect.getsource(oracle._laplace_batch)
    assert source.count("a.conjugate() if conj else a") == 1
    namespace = dict(vars(oracle))
    exec(source.replace("a.conjugate() if conj else a", "a"), namespace)
    return namespace["_laplace_batch"]


MUTANTS = {
    "state_eval_unweighted": (
        toeplitz_algebra, "state_eval", _state_without_weight, ("C06",)),
    "laplace_factors_plus": (
        subinvariance, "_laplace_factors", _laplace_factors_plus, ("C01", "C04", "C10")),
    "cts_defect_conjugated": (
        subinvariance, "defect_measure_cts", _defect_cts_conjugated, ("C04",)),
    "step_factors_conjugated": (
        subinvariance, "_step_factors", _step_factors_conjugated, ("C04", "C06", "C09", "C10")),
    "c_m_dropped": (solenoid_limit, "_normalized_average", _normalized_without_c, ("C12",)),
    "c_m_doubled": (solenoid_limit, "_normalized_average", _normalized_doubled, ("C12",)),
    "c_m_of_next_level": (
        tk.SolenoidMeasureThread, "_state", _state_with_next_levels_c, ("C07", "C12")),
    "dynamics_reversed": (toeplitz_algebra, "_dynamics", _dynamics_reversed, ("C05",)),
    "state_values_unweighted": (
        toeplitz_algebra, "_state_values", _state_values_unweighted(), ("C05", "C12")),
    "quadrature_partner_unconjugated": (
        oracle, "_laplace_batch", _quadrature_without_conjugate(), ("C01",)),
}


@pytest.mark.parametrize("tower", ["line", "planar"])
def test_theta_mod_one_fails_the_quadrature_check(tower, monkeypatch, request):
    thread = request.getfixturevalue(f"{tower}_uniform_thread")
    cfg = tk.SuiteConfig(samples=2, s_samples=0, moment_box=1)
    assert tk.overall_pass(tk.run_checks(("C01",), thread, cfg))
    monkeypatch.setattr(tk.BlockParams, "theta_dot", _theta_dot_mod_one)
    rows = tk.run_checks(("C01",), thread, cfg)
    assert not tk.overall_pass(rows)
    assert rows[0].residual > 1e-3


@pytest.mark.parametrize("tower", sorted(TOWERS))
def test_unmutated_code_passes_every_check(tower):
    thread = _load(tower)
    assert tk.overall_pass(tk.run_checks(tk.SUITES["all"], thread, CFG))


@pytest.mark.parametrize("tower", sorted(TOWERS))
@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_mutant_fails_its_checks(mutant, tower, monkeypatch):
    module, name, replacement, checks = MUTANTS[mutant]
    _patch(monkeypatch, module, name, replacement)
    thread = _load(tower)  # as a user of the mutated library would
    rows = tk.run_checks(checks, thread, CFG)
    for check_id in checks:
        assert any(r.status == "fail" for r in rows if r.check_id == check_id), check_id


@pytest.mark.parametrize("tower", sorted(TOWERS))
def test_conjugated_defect_phase_fails_c04_by_a_margin(tower, monkeypatch):
    thread = _load(tower)
    _patch(monkeypatch, subinvariance, "defect_measure_cts", _defect_cts_conjugated)
    rows = tk.run_checks(("C04",), thread, CFG)
    assert max(r.residual for r in rows) >= 1.35e-2


@pytest.mark.parametrize("tower", sorted(TOWERS))
def test_min_join_fails_a_row_or_stops_the_report(tower, monkeypatch):
    thread = _load(tower)
    _patch(monkeypatch, toeplitz_algebra, "_product", _product_min_join())
    try:
        rows = tk.run_checks(tk.SUITES["all"], thread, CFG)
    except ValueError as exc:  # uncaught by `report`, whose process then exits 1
        assert "nonnegative" in str(exc)
        return
    assert not tk.overall_pass(rows)
