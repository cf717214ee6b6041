"""The public API: ``toruskms.__all__``, the union of the submodules' lists.

The frozen list below is the contract.  A name enters it by being called from
outside the tests (the package, the CLI, ``demos/`` or ``perfbench/``), by
being raised or returned by a name that is, or by being a reference route the
tests compare against (``fock_dense_state``).  Changing it is an API change.
"""

from __future__ import annotations

import pytest

import toruskms as tk
from toruskms import (
    oracle,
    scenario,
    solenoid_limit,
    subinvariance,
    suites,
    toeplitz_algebra,
    torus_measure,
)

PUBLIC = [
    "AlgebraElement", "AtomicMeasure", "BlockParams", "CHECKS", "Dimensions",
    "FockTruncation", "IncompatibleThread", "InvalidBlock", "InvalidThread",
    "LevelConstants", "LevelData", "LevelMismatch", "MappedIndexMeasure", "MeetNotZero",
    "MultipliedMeasure", "NegativeInput", "NegativeS", "NonNonnegativeTheta",
    "NotSubinvariant", "PositivityVerdict", "QuadratureSpec", "SUITES", "Scenario",
    "SingularE", "SingularMatrix", "SolenoidMeasureThread", "StateReport", "SuiteConfig",
    "ThetaZero", "TopLevel", "TorusMeasure", "UniformMeasure", "Word", "WordParseError",
    "adjoint", "apply_dynamics", "atomic_from_json", "bhs_reconciliation", "build_thread",
    "check_subinvariance", "consistency_residual", "defect_measure_cts",
    "defect_measure_finite", "derive_levels", "derive_next_level", "embed_word",
    "fock_dense_state", "fock_element_matrix", "fock_state_eval", "fock_tail_bound",
    "fock_word_matrix", "geometric_tail_fraction", "kappa_from_nu", "kms_residual",
    "laplace_quadrature", "level_constants", "moment_table", "mu_from_nu", "multiply",
    "normalized_nu", "nu_from_kappa", "nu_from_mu", "numeric_limit_mu", "overall_pass",
    "parse_word", "positivity_test", "preimage_points", "psi_eval", "psi_oracle",
    "pushforward_dual", "reduce_mod_1", "render_csv", "render_json", "render_text",
    "run_checks", "run_suite", "scenario_from_json", "scenario_to_json", "state_eval",
    "thread_from_json", "truncated_inverse_moment", "validate_scenario", "validate_thread",
    "write_moment_csv",
]

DELETED = [
    "moment", "FourierTableMeasure", "OutOfBox", "translate", "atomic_to_json",
    "embed_element", "sigma_map", "join",
]

MODULES = (torus_measure, scenario, subinvariance, toeplitz_algebra, solenoid_limit, oracle,
           suites)


def test_public_api_is_the_frozen_list():
    assert sorted(tk.__all__) == PUBLIC


def test_root_list_is_the_union_of_the_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert tk.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tk, name) is getattr(module, name), name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from toruskms import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_are_gone(name):
    assert not hasattr(tk, name)
    assert not any(hasattr(module, name) for module in MODULES)
