"""Measure threads, level embeddings, the limit state, and consistency."""

from __future__ import annotations

import numpy as np
import pytest

import toruskms as tk

from conftest import random_atomic


def test_embed_word_scales_exponents(line_scenario):
    w = tk.Word(p=(1,), n=(2,), q=(3,), level=1)
    up = tk.embed_word(w, line_scenario)
    assert up.level == 2
    assert up.p == (2,)
    assert up.n == (4,)
    assert up.q == (6,)
    with pytest.raises(tk.TopLevel):
        tk.embed_word(tk.Word(p=(0,), n=(0,), q=(0,), level=4), line_scenario)


def test_embedding_is_multiplicative(line_scenario, planar_scenario):
    rng = np.random.default_rng(0)
    for sc in (line_scenario, planar_scenario):
        k, d = sc.dims.k, sc.dims.d
        theta_lo = sc.level(1).theta
        theta_hi = sc.level(2).theta
        for _ in range(25):
            a = tk.AlgebraElement.from_word(
                tk.Word(
                    p=tuple(rng.integers(0, 3, k)),
                    n=tuple(rng.integers(-2, 3, d)),
                    q=tuple(rng.integers(0, 3, k)),
                    level=1,
                ),
                complex(rng.normal(), rng.normal()),
            )
            b = tk.AlgebraElement.from_word(
                tk.Word(
                    p=tuple(rng.integers(0, 3, k)),
                    n=tuple(rng.integers(-2, 3, d)),
                    q=tuple(rng.integers(0, 3, k)),
                    level=1,
                ),
                complex(rng.normal(), rng.normal()),
            )
            lifted = tk.multiply(
                tk.embed_element(a, sc), tk.embed_element(b, sc), theta_hi
            )
            direct = tk.embed_element(tk.multiply(a, b, theta_lo), sc)
            assert lifted.sup_coefficient_distance(direct) < 1e-12


def test_embedding_commutes_with_adjoint(line_scenario):
    w = tk.Word(p=(1,), n=(-2,), q=(0,), level=1)
    a = tk.AlgebraElement.from_word(w, 0.5 + 0.25j)
    one = tk.adjoint(tk.embed_element(a, line_scenario))
    two = tk.embed_element(tk.adjoint(a), line_scenario)
    assert one.sup_coefficient_distance(two) < 1e-15


def test_uniform_thread_compatibility(line_scenario, planar_scenario):
    for sc in (line_scenario, planar_scenario):
        thread = tk.build_thread(sc, kind="uniform")
        assert tk.validate_thread(thread) == []


def test_point_thread_canonical_lift(line_scenario):
    thread = tk.build_thread(line_scenario, kind="point", y1=np.array([0.3]))
    assert tk.validate_thread(thread) == []
    # each level's single atom maps to the previous one under y -> E^T y
    for m in range(1, line_scenario.depth):
        lo = thread.measure(m)
        hi = thread.measure(m + 1)
        E = line_scenario.level(m).E
        image = (hi.points @ E) % 1.0
        assert np.min(np.abs(image - lo.points)) < 1e-12


def test_explicit_point_thread_rejects_incompatible(line_scenario):
    with pytest.raises(tk.IncompatibleThread):
        tk.build_thread(
            line_scenario,
            kind="point",
            points=[np.array([0.3]), np.array([0.11]), np.array([0.3]), np.array([0.3])],
        )


def test_toplevel_thread_pushes_down(planar_scenario):
    rng = np.random.default_rng(1)
    top = random_atomic(rng, 2, atoms=3)
    thread = tk.build_thread(planar_scenario, kind="toplevel", toplevel=top)
    assert tk.validate_thread(thread) == []
    # level m measure is the dual pushforward of level m+1
    for m in range(1, planar_scenario.depth):
        E = planar_scenario.level(m).E
        for n in ([1, 0], [0, 2], [-1, 1]):
            n = np.array(n)
            lhs = thread.measure(m).moment(n)
            rhs = thread.measure(m + 1).moment(E @ n)
            assert abs(lhs - rhs) < 1e-13


def test_psi_on_point_thread_matches_closed_form(line_scenario, line_point_thread):
    w = tk.Word(p=(1,), n=(2,), q=(1,), level=2)
    params = tk.BlockParams.at_level(line_scenario, 2)
    t = float((params.theta @ np.array([2.0]))[0])
    expected = (
        np.exp(-params.beta * params.r[0])
        * (params.beta * params.r[0] / (params.beta * params.r[0] - 2j * np.pi * t))
        * line_point_thread.measure(2).moment([2])
    )
    assert abs(tk.psi_eval(line_point_thread, w) - expected) < 1e-14


def test_psi_vanishes_off_diagonal(line_point_thread):
    w = tk.Word(p=(2,), n=(1,), q=(1,), level=1)
    assert tk.psi_eval(line_point_thread, w) == 0j


def test_psi_rejects_levels_beyond_depth(line_point_thread):
    with pytest.raises(tk.InvalidThread):
        tk.psi_eval(line_point_thread, tk.Word(p=(0,), n=(0,), q=(0,), level=9))


def test_psi_element_linear(line_point_thread):
    w1 = tk.Word(p=(0,), n=(1,), q=(0,), level=1)
    w2 = tk.Word(p=(1,), n=(0,), q=(1,), level=1)
    a = tk.AlgebraElement(1, {w1: 2.0, w2: -1j})
    expected = 2.0 * tk.psi_eval(line_point_thread, w1) - 1j * tk.psi_eval(
        line_point_thread, w2
    )
    assert abs(tk.psi_eval_element(line_point_thread, a) - expected) < 1e-14


def test_consistency_residual_vanishes(line_point_thread, planar_point_thread):
    rng = np.random.default_rng(2)
    for thread in (line_point_thread, planar_point_thread):
        sc = thread.scenario
        k, d = sc.dims.k, sc.dims.d
        for m in range(1, sc.depth):
            for _ in range(30):
                w = tk.Word(
                    p=tuple(rng.integers(0, 4, k)),
                    n=tuple(rng.integers(-3, 4, d)),
                    q=tuple(rng.integers(0, 4, k)),
                    level=m,
                )
                assert tk.consistency_residual(thread, w) < 1e-12


def test_consistency_breaks_for_corrupted_thread(line_scenario):
    # replace level 2's measure with an unrelated point: psi values disagree
    good = tk.build_thread(line_scenario, kind="point", y1=np.array([0.3]))
    measures = list(good.measures)
    measures[1] = tk.AtomicMeasure(np.array([[0.77]]), np.array([1.0]))
    bad = tk.SolenoidMeasureThread(line_scenario, tuple(measures))
    assert tk.validate_thread(bad) != []
    w = tk.Word(p=(0,), n=(1,), q=(0,), level=1)
    assert tk.consistency_residual(bad, w) > 1e-3


@pytest.mark.parametrize("keyword, value", [("moment_radius", 0), ("tol", 1.0)])
def test_validate_thread_has_no_coverage_or_tolerance_keyword(line_point_thread, keyword, value):
    # the box and the gate are COMPAT_RADIUS and COMPAT_TOL, so no caller can
    # pass a thread that `validate` rejects
    with pytest.raises(TypeError):
        tk.validate_thread(line_point_thread, **{keyword: value})


def test_validate_thread_flags_non_finite_moments(line_scenario):
    good = tk.build_thread(line_scenario, kind="point", y1=np.array([0.3]))
    measures = list(good.measures)
    # AtomicMeasure rejects a NaN weight, so poison the level through a multiplier
    measures[1] = tk.MultipliedMeasure(
        tk.AtomicMeasure(np.array([[0.65]]), np.array([1.0])), lambda N: np.nan, tag="nan"
    )
    bad = tk.SolenoidMeasureThread(line_scenario, tuple(measures))
    problems = tk.validate_thread(bad)
    assert any(p.startswith("level 2: mass") for p in problems)
    assert any(p.startswith("levels 1->2: compatibility defect nan") for p in problems)
    assert any(p.startswith("levels 2->3: compatibility defect nan") for p in problems)


def test_sigma_map_intertwines_laplace_averages(line_scenario, line_point_thread):
    for m in range(1, line_scenario.depth):
        lo = tk.BlockParams.at_level(line_scenario, m)
        hi = tk.BlockParams.at_level(line_scenario, m + 1)
        nu_lo = tk.nu_from_mu(line_point_thread.measure(m), lo, check=False)
        nu_hi = tk.nu_from_mu(line_point_thread.measure(m + 1), hi, check=False)
        sig = tk.sigma_map(nu_hi, line_scenario, m)
        for n in range(-4, 5):
            assert abs(sig.moment([n]) - nu_lo.moment([n])) < 1e-13


def test_normalized_nu_is_probability(line_point_thread):
    for m in range(1, 5):
        nu = tk.normalized_nu(line_point_thread, m)
        assert abs(nu.total_mass() - 1.0) < 1e-12


def test_level_constants_telescope(line_scenario):
    consts = tk.level_constants(line_scenario)
    for m in range(1, line_scenario.depth):
        d_m = line_scenario.level(m).det_D()
        assert abs(d_m * consts.c[m] - consts.c[m - 1]) < 1e-15


def test_preimage_points_count_and_compatibility():
    E = np.array([[2, 1], [0, 1]])
    y = np.array([0.3, 0.55])
    pres = tk.preimage_points(y, E)
    assert len(pres) == 2  # |det E| preimages
    for z in pres:
        assert np.max(np.abs(((E.T @ z) - y + 0.5) % 1.0 - 0.5)) < 1e-9


def test_thread_json_round_trip(line_scenario, tmp_path):
    obj = {"kind": "point", "y1": [0.3]}
    thread = tk.thread_from_json(obj, line_scenario)
    assert tk.validate_thread(thread) == []
    obj2 = {"kind": "uniform"}
    t2 = tk.thread_from_json(obj2, line_scenario)
    assert t2.measure(1).moment([1]) == 0.0
