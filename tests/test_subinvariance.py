"""Moment transforms, defect measures, the subinvariance gate, and limits."""

from __future__ import annotations

import cmath
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toruskms as tk

from conftest import random_atomic, random_block


def _unit_block() -> tk.BlockParams:
    return tk.BlockParams(theta=np.array([[1.0]]), r=np.array([1.0]), beta=1.0)


def test_laplace_multiplier_frozen_value():
    # point mass at 0, beta = r = theta = 1, n = 1: the Laplace average has
    # moment 1 / (1 - 2 pi i); value frozen from the analytic form and
    # matched against quadrature to 1.6e-14 when this test was written
    params = _unit_block()
    point = tk.AtomicMeasure(np.array([[0.0]]), np.array([1.0]))
    nu = tk.nu_from_mu(point, params)
    frozen = 0.024704523031857644 + 0.15522309613464763j
    assert abs(nu.moment([1]) - frozen) < 1e-15
    assert abs(nu.moment([1]) - 1.0 / (1.0 - 2j * np.pi)) < 1e-15


def test_geometric_resolvent_frozen_value():
    # kappa any probability measure, n = 0, beta = r = 1: the resolvent sum
    # has total mass 1 / (1 - e^(-1)) = 1.5819767068693265
    params = _unit_block()
    kappa = tk.AtomicMeasure(np.array([[0.25]]), np.array([1.0]))
    nu = tk.nu_from_kappa(kappa, params)
    assert abs(nu.moment([0]) - 1.5819767068693265) < 1e-15


def test_mass_identities():
    rng = np.random.default_rng(0)
    for _ in range(5):
        d, k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        params = random_block(rng, d, k)
        mu = random_atomic(rng, d, mass=float(rng.uniform(0.5, 2.0)))
        nu = tk.nu_from_mu(mu, params)
        assert abs(nu.total_mass() - mu.total_mass() / params.mass_factor()) < 1e-12
        back = tk.mu_from_nu(nu, params, check=False)
        assert abs(back.total_mass() - nu.total_mass() * params.mass_factor()) < 1e-12


def test_partition_value():
    params = _unit_block()
    assert abs(params.partition_value() - 1.0 / (1.0 - np.exp(-1.0))) < 1e-15


def test_resolvent_normalization_iff_kappa_mass():
    rng = np.random.default_rng(1)
    params = random_block(rng, 2, 2)
    kappa = random_atomic(rng, 2, mass=1.0 / params.partition_value())
    nu = tk.nu_from_kappa(kappa, params)
    assert abs(nu.total_mass() - 1.0) < 1e-12


def test_round_trips_on_moments():
    rng = np.random.default_rng(2)
    for _ in range(4):
        d, k = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        params = random_block(rng, d, k)
        mu = random_atomic(rng, d)
        nu = tk.nu_from_mu(mu, params)
        back = tk.mu_from_nu(nu, params, check=False)
        kappa = tk.kappa_from_nu(nu, params)
        nu2 = tk.nu_from_kappa(kappa, params)
        for _ in range(10):
            n = rng.integers(-5, 6, size=d)
            assert abs(back.moment(n) - mu.moment(n)) < 1e-12
            assert abs(nu2.moment(n) - nu.moment(n)) < 1e-12


def test_nu_from_mu_rejects_signed_input():
    params = _unit_block()
    signed = tk.AtomicMeasure(np.array([[0.1], [0.7]]), np.array([1.0, -0.4]))
    with pytest.raises(ValueError, match="negative or complex weights"):
        tk.nu_from_mu(signed, params)
    # check=False lets analysis continue on signed data
    nu = tk.nu_from_mu(signed, params, check=False)
    assert abs(nu.total_mass() - 0.6) < 1e-12


def test_mu_from_nu_gate_rejects_non_subinvariant():
    # a nu that is positive but NOT a Laplace average: the uniform measure
    # itself (its defect at s = (1,1,...) is a signed measure)
    params = _unit_block()
    not_nu = tk.AtomicMeasure(np.array([[0.0], [0.5]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="defect at s="):
        tk.mu_from_nu(not_nu, params)


def test_mu_from_nu_gate_accepts_laplace_averages():
    rng = np.random.default_rng(3)
    params = random_block(rng, 1, 1)
    nu = tk.nu_from_mu(random_atomic(rng, 1), params)
    back = tk.mu_from_nu(nu, params)  # gate on
    assert abs(back.total_mass() - 1.0) < 1e-10


def _inclusion_exclusion(base, family, params, N):
    """Reference moments of the finite defect, in plain Python:

        sum over S subset of F of (-1)^|S| e^(-beta p_S.r) e^(2 pi i p_S.theta n)

    times the base moment at n, with p_S the sum of the steps in S.
    """
    beta, r, theta = params.beta, params.r.tolist(), params.theta.tolist()
    out = []
    for n in N.tolist():
        t = [sum(a * b for a, b in zip(row, n)) for row in theta]
        total = 0j
        for size in range(len(family) + 1):
            for subset in itertools.combinations(family, size):
                p_s = [sum(col) for col in zip(*subset)] if subset else [0] * len(r)
                decay = -beta * sum(p * x for p, x in zip(p_s, r))
                phase = 2.0 * math.pi * sum(p * x for p, x in zip(p_s, t))
                total += (-1) ** size * cmath.exp(complex(decay, phase))
        out.append(total)
    return np.array(out) * base.moments(N)


def test_finite_defect_product_vs_inclusion_exclusion():
    # the defect of a Laplace average over a meet-zero family is a product of
    # per-step factors; it matches the inclusion-exclusion sum on a moment box
    # and keeps a positive mass
    rng = np.random.default_rng(4)
    params = random_block(rng, 2, 2)
    nu = tk.nu_from_mu(random_atomic(rng, 2), params)
    F = [np.array([2, 0]), np.array([0, 3])]
    defect = tk.defect_measure_finite(nu, F, params)
    N = np.array(list(itertools.product(range(-3, 4), repeat=2)))
    gap = np.max(np.abs(defect.moments(N) - _inclusion_exclusion(nu, F, params, N)))
    assert gap <= 1e-14 * abs(nu.total_mass())
    assert defect.total_mass().real > 0


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 3),
    d=st.integers(1, 3),
    size=st.integers(0, 3),
    owners=st.lists(st.integers(-1, 2), min_size=3, max_size=3),
    entries=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
)
def test_finite_defect_matches_inclusion_exclusion(k, d, size, owners, entries, seed):
    # axis j belongs to the step owners[j] (to none if that is -1 or >= size), so
    # the supports are disjoint and the family is meet-zero; a step may be zero
    family = [[entries[j] if owners[j] == i else 0 for j in range(k)] for i in range(size)]
    rng = np.random.default_rng(seed)
    params = random_block(rng, d, k)
    base = random_atomic(rng, d)  # a probability measure: every |moment| <= 1
    N = rng.integers(-2, 3, size=(10, d))
    got = tk.defect_measure_finite(base, family, params).moments(N)
    assert np.max(np.abs(got - _inclusion_exclusion(base, family, params, N))) <= 1e-14


def test_finite_defect_rejects_overlapping_family():
    rng = np.random.default_rng(5)
    params = random_block(rng, 2, 2)
    nu = tk.nu_from_mu(random_atomic(rng, 2), params)
    with pytest.raises(ValueError, match="have nonzero meet"):
        tk.defect_measure_finite(nu, [np.array([1, 0]), np.array([1, 1])], params)


def test_cts_defect_positive_on_laplace_averages():
    rng = np.random.default_rng(6)
    params = random_block(rng, 1, 2)
    nu = tk.nu_from_mu(random_atomic(rng, 1), params)
    for s in (np.array([0.5, 1.5]), np.array([2.0, 0.1])):
        defect = tk.defect_measure_cts(nu, s, params)
        assert tk.positivity_test(defect).is_positive


def test_cts_defect_rejects_negative_s():
    params = _unit_block()
    nu = tk.nu_from_mu(tk.UniformMeasure(1), params)
    with pytest.raises(ValueError, match="s must be entrywise nonnegative"):
        tk.defect_measure_cts(nu, np.array([-0.5]), params)


@pytest.mark.parametrize("s", [np.nan, np.inf])
def test_cts_defect_rejects_a_non_finite_s(s):
    # a NaN or infinite step once built a defect whose moments were all NaN
    params = _unit_block()
    with pytest.raises(ValueError, match="s must be finite"):
        tk.defect_measure_cts(tk.UniformMeasure(1), [s], params)


def test_cts_defect_has_no_axes_keyword():
    params = _unit_block()
    with pytest.raises(TypeError):
        tk.defect_measure_cts(tk.UniformMeasure(1), np.array([0.5]), params, axes=[0])


@pytest.mark.parametrize("d, k", [(2, 2), (3, 3)])
def test_kappa_is_the_defect_at_the_unit_steps(d, k):
    # one step factor serves all three: the cts defect at s = 1 rounds every
    # moment as kappa does; sorting F may reorder the finite defect's product
    rng = np.random.default_rng(20 + d)
    params = random_block(rng, d, k)
    nu = tk.nu_from_mu(random_atomic(rng, d), params)
    N = np.array(list(itertools.product(range(-3, 4), repeat=d)))
    kappa = tk.kappa_from_nu(nu, params).moments(N)
    assert np.array_equal(tk.defect_measure_cts(nu, np.ones(k), params).moments(N), kappa)
    finite = tk.defect_measure_finite(nu, list(np.eye(k, dtype=np.int64)), params).moments(N)
    assert np.max(np.abs(finite - kappa) / np.abs(kappa)) <= 1e-15


def test_defect_measures_pickle_with_their_moments():
    rng = np.random.default_rng(22)
    params = random_block(rng, 2, 2)
    nu = tk.nu_from_mu(random_atomic(rng, 2), params)
    N = np.array(list(itertools.product(range(-2, 3), repeat=2)))
    for defect in (tk.defect_measure_cts(nu, [0.3, 1.2], params),
                   tk.defect_measure_finite(nu, [[1, 0], [0, 2]], params),
                   tk.defect_measure_finite(nu, [], params)):
        restored = pickle.loads(pickle.dumps(defect))
        assert restored.tag == defect.tag
        assert np.array_equal(restored.moments(N), defect.moments(N))


def test_check_subinvariance_accepts_and_rejects():
    rng = np.random.default_rng(8)
    params = random_block(rng, 2, 1)
    good = tk.nu_from_mu(random_atomic(rng, 2), params)
    ok, failures = tk.check_subinvariance(good, params)
    assert ok and failures == []
    signed = tk.nu_from_mu(
        tk.AtomicMeasure(rng.random((2, 2)), np.array([1.0, -0.4])), params, check=False
    )
    ok2, failures2 = tk.check_subinvariance(signed, params)
    assert not ok2
    assert failures2


SIGNED_NU = tk.AtomicMeasure(np.array([[0.1], [0.6]]), np.array([1.5, -0.5]))


def test_check_subinvariance_fails_a_signed_measure_at_its_constants(line_scenario):
    # nu itself, the defect at s = 1 and every drawn defect each fail
    params = tk.BlockParams.at_level(line_scenario, 1)
    ok, failures = tk.check_subinvariance(SIGNED_NU, params)
    assert not ok
    assert len(failures) == 2 + tk.subinvariance.SUBINV_DRAWS


@pytest.mark.parametrize(
    "keyword, value", [("samples", 0), ("seed", 1), ("moment_radius", 0), ("tol", 10.0)]
)
def test_check_subinvariance_has_no_coverage_or_tolerance_keyword(line_scenario, keyword, value):
    # moment_radius=0 or tol=10 once passed SIGNED_NU
    params = tk.BlockParams.at_level(line_scenario, 1)
    with pytest.raises(TypeError):
        tk.check_subinvariance(SIGNED_NU, params, **{keyword: value})


def test_numeric_limit_recovers_mu_moment():
    rng = np.random.default_rng(9)
    params = random_block(rng, 2, 2)
    mu = random_atomic(rng, 2)
    nu = tk.nu_from_mu(mu, params)
    n = np.array([1, -2])
    schedule = tuple(10.0 ** (-1 - 0.5 * i) for i in range(7))
    values = tk.numeric_limit_mu(nu, params, n, schedule)
    errors = np.abs(values - mu.moment(n))
    # errors shrink linearly in s
    slope = np.polyfit(np.log10(schedule), np.log10(errors), 1)[0]
    assert slope > 0.9
    assert errors[-1] < 1e-3


def test_numeric_limit_mass_monotone_from_below():
    rng = np.random.default_rng(10)
    params = random_block(rng, 1, 2)
    nu = tk.nu_from_mu(random_atomic(rng, 1), params)
    schedule = tuple(10.0 ** (-1 - 0.5 * i) for i in range(6))
    values = tk.numeric_limit_mu(nu, params, np.zeros(1, dtype=np.int64), schedule).real
    bound = params.mass_factor() * abs(nu.total_mass())
    assert np.all(np.diff(values) > -1e-13)
    assert np.all(values <= bound * (1 + 1e-12))


def test_numeric_limit_requires_decreasing_schedule():
    params = _unit_block()
    nu = tk.nu_from_mu(tk.UniformMeasure(1), params)
    with pytest.raises(ValueError):
        tk.numeric_limit_mu(nu, params, np.array([1]), (0.1, 0.2))


@pytest.mark.parametrize("schedule", [(0.1, np.nan), (np.inf, 0.1)])
def test_numeric_limit_rejects_a_non_finite_schedule(schedule):
    params = _unit_block()
    nu = tk.nu_from_mu(tk.UniformMeasure(1), params)
    with pytest.raises(ValueError, match="s_schedule must be positive, finite"):
        tk.numeric_limit_mu(nu, params, np.array([1]), schedule)


@pytest.mark.parametrize("n", [[0.5], [np.nan], [0, 1]])
def test_numeric_limit_rejects_an_index_that_moment_rejects(n):
    # a non-integral index was once truncated to n = 0 and its values returned
    params = _unit_block()
    nu = tk.nu_from_mu(tk.AtomicMeasure(np.array([[0.3]]), np.array([1.0])), params)
    with pytest.raises(ValueError, match="moment index"):
        nu.moment(n)
    with pytest.raises(ValueError, match="moment index"):
        tk.numeric_limit_mu(nu, params, n, (0.1, 0.01))


def test_block_params_validation():
    with pytest.raises(ValueError):
        tk.BlockParams(theta=np.array([[0.5]]), r=np.array([1.0]), beta=-1.0)
    with pytest.raises(ValueError):
        tk.BlockParams(theta=np.array([[0.5]]), r=np.array([0.0]), beta=1.0)
    with pytest.raises(ValueError):
        tk.BlockParams(theta=np.array([[-0.5]]), r=np.array([1.0]), beta=1.0)


@pytest.mark.parametrize(
    "theta, r, beta",
    [([[np.nan]], [1.0], 1.0), ([[0.5]], [np.inf], 1.0), ([[0.5]], [1.0], np.inf)],
)
def test_block_params_rejects_non_finite(theta, r, beta):
    with pytest.raises(ValueError, match="finite"):
        tk.BlockParams(theta=np.array(theta), r=np.array(r), beta=beta)


def test_at_level_raises_invalid_block_naming_the_level(line_scenario):
    levels = list(line_scenario.levels)
    levels[1] = dataclasses.replace(levels[1], r=np.array([0.0]))
    broken = dataclasses.replace(line_scenario, levels=tuple(levels))
    with pytest.raises(tk.ConstraintViolation, match="level 2: r entries"):
        tk.BlockParams.at_level(broken, 2)


def test_defects_are_multiplied_measures_with_tags():
    params = _unit_block()
    finite = tk.defect_measure_finite(tk.UniformMeasure(1), [np.array([1])], params)
    cts = tk.defect_measure_cts(tk.UniformMeasure(1), np.array([0.5]), params)
    assert type(finite) is tk.MultipliedMeasure and finite.tag == "finite-defect(F=[[1]])"
    assert type(cts) is tk.MultipliedMeasure and cts.tag == "cts-defect(s=[0.5])"


def test_finite_defect_of_a_nan_block_has_nan_moments():
    # a block that slipped past validation poisons every moment, even where
    # the base moment is 0; it never yields a finite value
    params = _unit_block()
    object.__setattr__(params, "theta", np.array([[np.nan]]))
    defect = tk.defect_measure_finite(tk.UniformMeasure(1), [np.array([1])], params)
    assert np.all(np.isnan(defect.moments(np.array([[0], [1]]))))


def test_block_params_at_level(line_scenario):
    params = tk.BlockParams.at_level(line_scenario, 2)
    assert params.theta[0, 0] == 0.25
    assert params.r[0] == 0.5
    assert params.beta == 1.0
