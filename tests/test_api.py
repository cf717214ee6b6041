"""The public API: ``toruskms.__all__``, the union of the submodules' lists.

The frozen list below is the contract.  A name enters it by being called from
outside the tests (the package, the CLI, ``demos/`` or ``perfbench/``), by
being returned by a name that is, or by being a reference route the tests
compare against (``fock_dense_state``).  An exception type is public only if
code outside the tests catches it by type: the CLI catches
``ConstraintViolation`` for exit 1, and every other rejected input raises a
plain ``ValueError``.  Changing the list is an API change.

``SETTINGS`` freezes the other half of the surface: every parameter with a
default of a public callable (a function, a class's constructor, or a public
method or classmethod of a public class), and every ``SuiteConfig`` field.  A
setting only the tests set is a constant of the module instead, and a default
that no caller outside the tests takes is deleted, so that each caller names
the value; a new keyword shows here as a one-line diff, as a new name does in
``PUBLIC``.

``METHODS`` freezes the methods written in the bodies of ``Word`` and
``AlgebraElement`` (not those a dataclass generates), so that an added or
deleted method, operator included, shows the same way.
"""

from __future__ import annotations

import dataclasses
import inspect

import numpy as np
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
    "AlgebraElement", "AtomicMeasure", "BlockParams", "CHECKS", "ConstraintViolation",
    "Dimensions", "FockTruncation", "LevelConstants", "LevelData", "MappedIndexMeasure",
    "MultipliedMeasure", "PositivityVerdict", "SUITES", "Scenario", "SolenoidMeasureThread",
    "StateReport", "SuiteConfig", "TorusMeasure", "UniformMeasure", "Word", "adjoint",
    "apply_dynamics", "atomic_from_json", "bhs_reconciliation", "build_thread",
    "check_subinvariance", "consistency_residual", "defect_measure_cts",
    "defect_measure_finite", "derive_levels", "derive_next_level", "embed_word",
    "fock_dense_state", "fock_element_matrix", "fock_state_eval", "fock_word_matrix",
    "geometric_tail_fraction", "kappa_from_nu", "kms_residual", "laplace_quadrature",
    "level_constants", "moment_table", "mu_from_nu", "multiply", "normalized_nu",
    "nu_from_kappa", "nu_from_mu", "numeric_limit_mu", "overall_pass", "parse_word",
    "positivity_test", "preimage_points", "psi_eval", "psi_oracle", "pushforward_dual",
    "reduce_mod_1", "render_csv", "render_json", "render_text", "run_checks",
    "scenario_from_json", "scenario_to_json", "state_eval", "thread_from_json",
    "truncated_inverse_moment", "validate_scenario", "validate_thread", "write_moment_csv",
]

DELETED = [
    "moment", "FourierTableMeasure", "OutOfBox", "translate", "atomic_to_json",
    "embed_element", "sigma_map", "join", "QuadratureSpec",
    # the exception classes no code outside the tests told apart
    "NonNonnegativeTheta", "SingularE", "IncompatibleThread", "InvalidThread", "InvalidBlock",
    "SingularMatrix", "MeetNotZero", "NegativeS", "NegativeInput", "NotSubinvariant",
    "LevelMismatch", "WordParseError", "TopLevel", "ThetaZero",
    # one-line wrappers: run_checks(SUITES[name], ...) and tail_weight(params) * |mass|
    "run_suite", "fock_tail_bound",
]

SETTINGS = [
    "SuiteConfig(moment_box=5)",
    "SuiteConfig(s_samples=50)",
    "SuiteConfig(samples=100)",
    "SuiteConfig(seed=0)",
    "build_thread(points=None)",
    "build_thread(toplevel=None)",
    "build_thread(y1=None)",
    "mu_from_nu(check=True)",
    "nu_from_mu(check=True)",
    "positivity_test(moment_radius=5)",
]

SUITE_CONFIG_FIELDS = ["samples", "s_samples", "moment_box", "seed"]

METHODS = {
    "Word": ["__init__", "__setstate__", "__str__"],
    "AlgebraElement": ["__init__", "__repr__", "from_word", "sorted_terms",
                       "sup_coefficient_distance"],
}

DELETED_METHODS = {
    "Word": ["_built"],
    "AlgebraElement": ["__add__", "__mul__", "__rmul__", "__sub__", "coefficient"],
}

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


def _line_tower():
    levels = tk.derive_levels(np.array([[1.0]]), np.array([1.0]), [np.array([2])] * 2,
                              [np.array([[2]])] * 2)
    return tk.Scenario(dims=tk.Dimensions(d=1, k=1), beta=1.0, levels=levels)


def _block(theta=1.0):
    return tk.BlockParams(theta=np.array([[theta]]), r=np.array([1.0]), beta=1.0)


def _nu():
    return tk.nu_from_mu(tk.UniformMeasure(1), _block())


def _word(level):
    return tk.Word(p=(0,), n=(0,), q=(0,), level=level)


# deleted class -> (a call that raised it, its message, a ConstraintViolation?)
REJECTIONS = {
    "NonNonnegativeTheta": (lambda: tk.derive_levels(
        np.array([[0.9, 0.1]]), np.array([1.0]), [np.array([2])] * 2,
        [np.array([[1, 2], [2, 1]])] * 2), "derived theta has entry", True),
    "SingularE": (lambda: tk.derive_levels(
        np.array([[1.0]]), np.array([1.0]), [np.array([2])] * 2, [np.array([[0]])] * 2),
        "E matrix is singular", True),
    "IncompatibleThread": (lambda: tk.build_thread(
        _line_tower(), kind="point", points=[[0.3], [0.11]]), "differs from y_m", True),
    "InvalidThread": (lambda: tk.SolenoidMeasureThread(_line_tower(), (tk.UniformMeasure(1),)),
                      "one measure per scenario level", True),
    "InvalidBlock": (lambda: _block(theta=-1.0), "theta entries must be nonnegative", True),
    "SingularMatrix": (lambda: tk.pushforward_dual(tk.UniformMeasure(2), [[1, 1], [1, 1]]),
                       "nonzero determinant", False),
    "MeetNotZero": (lambda: tk.defect_measure_finite(_nu(), [(1,), (2,)], _block()),
                    "nonzero meet", False),
    "NegativeS": (lambda: tk.defect_measure_cts(_nu(), [-0.5], _block()),
                  "entrywise nonnegative", False),
    "NegativeInput": (lambda: tk.nu_from_mu(
        tk.AtomicMeasure([[0.1], [0.7]], [1.0, -0.4]), _block()), "negative or complex", False),
    "NotSubinvariant": (lambda: tk.mu_from_nu(tk.AtomicMeasure.point_mass([0.2]), _block()),
                        "not positive", False),
    "LevelMismatch": (lambda: tk.AlgebraElement(1, {_word(2): 1.0}),
                      "term at level 2 in element at level 1", False),
    "WordParseError": (lambda: tk.parse_word("garbage", 1, 1), "cannot parse word", False),
    "TopLevel": (lambda: tk.embed_word(_word(2), _line_tower()), "beyond depth 2", False),
    "ThetaZero": (lambda: tk.bhs_reconciliation(0.2, 0.0, 1.0, 1.0, 1), "theta > 0", False),
}


@pytest.mark.parametrize("deleted", sorted(REJECTIONS))
def test_each_deleted_class_is_a_value_error_now(deleted):
    call, message, constraint = REJECTIONS[deleted]
    with pytest.raises(ValueError, match=message) as info:
        call()
    assert isinstance(info.value, tk.ConstraintViolation) is constraint
    assert deleted in DELETED


def _public_callables():
    """(qualified name, callable) for each public function, class and public method."""
    for name in tk.__all__:
        obj = getattr(tk, name)
        if not inspect.isclass(obj):
            if callable(obj):
                yield name, obj
            continue
        if not issubclass(obj, BaseException):
            yield name, obj
        for attr, member in vars(obj).items():
            fn = getattr(member, "__func__", member)  # a classmethod's or staticmethod's function
            if not attr.startswith("_") and inspect.isfunction(fn):
                yield f"{name}.{attr}", getattr(obj, attr)


def test_settings_are_the_frozen_list():
    found = [
        f"{name}({param.name}={param.default!r})"
        for name, fn in _public_callables()
        for param in inspect.signature(fn).parameters.values()
        if param.default is not param.empty
    ]
    assert sorted(found) == SETTINGS
    assert [field.name for field in dataclasses.fields(tk.SuiteConfig)] == SUITE_CONFIG_FIELDS


def _written_methods(cls):
    """The functions defined in the class body, by the file their code comes from."""
    for name, member in vars(cls).items():
        fn = getattr(member, "__func__", member)
        if inspect.isfunction(fn) and fn.__code__.co_filename == inspect.getfile(cls):
            yield name


@pytest.mark.parametrize("name", sorted(METHODS))
def test_engine_methods_are_the_frozen_lists(name):
    cls = getattr(tk, name)
    assert sorted(_written_methods(cls)) == METHODS[name]
    for method in DELETED_METHODS[name]:
        assert not hasattr(cls, method), method
