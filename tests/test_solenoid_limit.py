"""Measure threads, level embeddings, the limit state, and consistency."""

from __future__ import annotations

import pickle

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
    with pytest.raises(ValueError, match="cannot embed beyond depth 4"):
        tk.embed_word(tk.Word(p=(0,), n=(0,), q=(0,), level=4), line_scenario)


def test_embed_word_rejects_an_image_at_2_62_instead_of_wrapping():
    # d = k = 1 with D = E = 5: 5 n is 18446744073709551620, which int64 wraps to 4
    levels = tk.derive_levels([[0.3]], [1.0], [[5], [5]], [[[5]], [[5]]])
    scenario = tk.Scenario(dims=tk.Dimensions(d=1, k=1), beta=1.0, levels=levels)
    assert tk.validate_scenario(scenario) == []
    n = 3689348814741910324
    assert tk.embed_word(tk.Word((0,), (n // 8,), (0,), 1), scenario).n == (5 * (n // 8),)
    for w in (tk.Word((0,), (n,), (0,), 1), tk.Word((n,), (0,), (n,), 1)):
        with pytest.raises(ValueError, match="2\\*\\*62"):
            tk.embed_word(w, scenario)
    thread = tk.build_thread(scenario, kind="point", y1=[0.1])
    with pytest.raises(ValueError, match="2\\*\\*62"):
        tk.consistency_residual(thread, tk.Word((0,), (n,), (0,), 1))


def test_point_thread_json_needs_points_or_y1(line_scenario):
    with pytest.raises(ValueError, match="needs either points or y1"):
        tk.thread_from_json({"kind": "point"}, line_scenario)
    with pytest.raises(ValueError, match="unknown thread kind 'line'"):
        tk.thread_from_json({"kind": "line", "toplevel_measure": "unparsed"}, line_scenario)
    # points win over y1
    thread = tk.thread_from_json({"kind": "point", "points": [[0.2], [0.1], [0.05], [0.025]],
                                  "y1": [0.7]}, line_scenario)
    assert thread.measure(1).moment([1]) == np.exp(2j * np.pi * 0.2)


def _embed(a, scenario):
    """The level embedding of an element: embed_word mapped over its terms."""
    return tk.AlgebraElement(
        a.level + 1, {tk.embed_word(w, scenario): c for w, c in a.terms.items()}
    )


def test_embedding_is_multiplicative(line_scenario, planar_scenario):
    rng = np.random.default_rng(0)
    for sc in (line_scenario, planar_scenario):
        k, d = sc.dims.k, sc.dims.d
        theta_lo = sc.level(1).theta
        theta_hi = sc.level(2).theta
        for _ in range(25):
            # the dict display draws the word, then its coefficient
            a = tk.AlgebraElement(1, {
                tk.Word(
                    p=tuple(rng.integers(0, 3, k)),
                    n=tuple(rng.integers(-2, 3, d)),
                    q=tuple(rng.integers(0, 3, k)),
                    level=1,
                ): complex(rng.normal(), rng.normal()),
            })
            b = tk.AlgebraElement(1, {
                tk.Word(
                    p=tuple(rng.integers(0, 3, k)),
                    n=tuple(rng.integers(-2, 3, d)),
                    q=tuple(rng.integers(0, 3, k)),
                    level=1,
                ): complex(rng.normal(), rng.normal()),
            })
            lifted = tk.multiply(_embed(a, sc), _embed(b, sc), theta_hi)
            direct = _embed(tk.multiply(a, b, theta_lo), sc)
            assert lifted.sup_coefficient_distance(direct) < 1e-12


def test_embedding_commutes_with_adjoint(line_scenario):
    w = tk.Word(p=(1,), n=(-2,), q=(0,), level=1)
    a = tk.AlgebraElement(w.level, {w: 0.5 + 0.25j})
    one = tk.adjoint(_embed(a, line_scenario))
    two = _embed(tk.adjoint(a), line_scenario)
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


@pytest.mark.parametrize("field, value", [("y1", {"a": 1}), ("points", 3)])
def test_build_thread_names_a_malformed_point_field(line_scenario, field, value):
    # build_thread converts the fields itself, so a library caller gets the loader's message
    with pytest.raises(ValueError, match=f'thread field "{field}" must be a list') as info:
        tk.build_thread(line_scenario, kind="point", **{field: value})
    assert not isinstance(info.value, tk.ConstraintViolation)


def test_explicit_point_thread_rejects_incompatible(line_scenario):
    with pytest.raises(tk.ConstraintViolation, match=r"levels 1->2: E\^T y_\(m\+1\)"):
        tk.build_thread(
            line_scenario,
            kind="point",
            points=[np.array([0.3]), np.array([0.11]), np.array([0.3]), np.array([0.3])],
        )


# flaw -> (atoms of a top-level measure on the line tower, build_thread's message)
TOPLEVEL_FLAWS = {
    "dimension": (({"x": [0.1, 0.2], "w": 1.0},), "dimension does not match the scenario"),
    "mass": (({"x": [0.1], "w": 0.6}, {"x": [0.7], "w": 0.3}), "must be a probability measure"),
    # mass 1, but psi's Gram matrix on V_e U_n V*_e has a negative eigenvalue
    "sign": (({"x": [0.1], "w": 1.5}, {"x": [0.7], "w": -0.5}), "negative or complex weights"),
}


@pytest.mark.parametrize("level", [1, 2, 4])
def test_a_thread_made_directly_rejects_a_signed_level_measure(line_scenario, level):
    # the sign gate build_thread applies to a top-level measure, at every level;
    # the signed measure has mass 1, so only its sign is wrong
    good = tk.build_thread(line_scenario, kind="point", y1=np.array([0.3]))
    measures = list(good.measures)
    measures[level - 1] = tk.AtomicMeasure(np.array([[0.1], [0.7]]), np.array([1.5, -0.5]))
    with pytest.raises(tk.ConstraintViolation, match=f"^level {level} measure: .*negative"):
        tk.SolenoidMeasureThread(line_scenario, tuple(measures))


def test_a_thread_made_directly_from_signed_pushforwards_is_rejected(line_scenario):
    # the pushforwards of a signed top-level measure: compatible and of mass 1,
    # so validate_thread lists nothing, but psi is no state
    top = tk.AtomicMeasure(np.array([[0.1], [0.7]]), np.array([1.5, -0.5]))
    measures = [top]
    for m in range(line_scenario.depth - 1, 0, -1):
        measures.append(tk.pushforward_dual(measures[-1], line_scenario.level(m).E))
    with pytest.raises(tk.ConstraintViolation, match="negative or complex weights"):
        tk.SolenoidMeasureThread(line_scenario, tuple(reversed(measures)))


@pytest.mark.parametrize("flaw", sorted(TOPLEVEL_FLAWS))
def test_toplevel_thread_rejects_a_measure_that_is_no_probability_on_the_torus(
    line_scenario, flaw
):
    atoms, message = TOPLEVEL_FLAWS[flaw]
    top = tk.atomic_from_json({"atoms": list(atoms)})
    with pytest.raises(tk.ConstraintViolation, match=f"toplevel measure.*{message}"):
        tk.build_thread(line_scenario, kind="toplevel", toplevel=top)


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
    # a level out of range is bad input (exit 2 in the CLI), not a violated constraint
    with pytest.raises(ValueError, match="level 9 outside 1..4") as info:
        tk.psi_eval(line_point_thread, tk.Word(p=(0,), n=(0,), q=(0,), level=9))
    assert not isinstance(info.value, tk.ConstraintViolation)


@pytest.mark.parametrize("m", [-1, 0, 5])
def test_a_level_outside_the_thread_is_bad_input(line_point_thread, m):
    # _state(0) must not read the top level's state from the end of the tuple
    calls = [line_point_thread.measure, lambda m: tk.normalized_nu(line_point_thread, m)]
    if m > 0:  # a diagonal and an off-diagonal word, which takes the same state pass
        for word in (tk.Word(p=(0,), n=(0,), q=(0,), level=m),
                     tk.Word(p=(1,), n=(0,), q=(0,), level=m)):
            calls.append(lambda m, word=word: tk.psi_eval(line_point_thread, word))
    for call in calls:
        with pytest.raises(ValueError, match=f"level {m} outside 1..4") as info:
            call(m)
        assert not isinstance(info.value, tk.ConstraintViolation)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "field, value",
    [("theta", -1.0), ("theta", np.nan), ("theta", np.inf),
     ("r", -1.0), ("r", np.nan), ("r", np.inf)],
)
def test_no_thread_exists_on_a_tower_with_an_invalid_block(line_scenario, level, field, value):
    levels = list(line_scenario.levels)
    parts = {f: getattr(levels[level - 1], f) for f in ("theta", "D", "E", "r")}
    parts[field] = np.full_like(parts[field], value)
    levels[level - 1] = tk.LevelData(**parts)
    bad = tk.Scenario(dims=line_scenario.dims, beta=line_scenario.beta, levels=tuple(levels))
    good = tk.build_thread(line_scenario, kind="point", y1=[0.3])
    builds = [
        lambda: tk.build_thread(bad, kind="uniform"),
        lambda: tk.build_thread(bad, kind="point", y1=[0.3]),
        lambda: tk.build_thread(bad, kind="point", points=[mu.points[0] for mu in good.measures]),
        lambda: tk.build_thread(bad, kind="toplevel", toplevel=good.measure(4)),
        lambda: tk.thread_from_json({"kind": "point", "y1": [0.3]}, bad),
        lambda: tk.SolenoidMeasureThread(scenario=bad, measures=good.measures),
    ]
    for build in builds:
        with pytest.raises(tk.ConstraintViolation, match=f"^level {level}: "):
            build()


def test_a_thread_is_complete_when_made(planar_scenario):
    # evaluating psi and nu_m reads the thread's state and never adds to it
    thread = tk.build_thread(planar_scenario, kind="point", y1=np.array([0.3, 0.55]))
    made = pickle.dumps(thread)
    for m in range(1, 4):
        tk.normalized_nu(thread, m)
        tk.psi_eval(thread, tk.Word(p=(1, 0), n=(2, -1), q=(1, 0), level=m))
    assert pickle.dumps(thread) == made


def test_psi_element_linear(line_scenario, line_point_thread):
    # psi on an element is state_eval of the level's normalized measure
    w1 = tk.Word(p=(0,), n=(1,), q=(0,), level=1)
    w2 = tk.Word(p=(1,), n=(0,), q=(1,), level=1)
    a = tk.AlgebraElement(1, {w1: 2.0, w2: -1j})
    expected = 2.0 * tk.psi_eval(line_point_thread, w1) - 1j * tk.psi_eval(
        line_point_thread, w2
    )
    nu = tk.normalized_nu(line_point_thread, 1)
    value = tk.state_eval(nu, tk.BlockParams.at_level(line_scenario, 1), a)
    assert abs(value - expected) < 1e-14


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
    # sigma_m(nu) = (det D_m)^(-1) * (E_m^T pushforward of nu) carries the
    # Laplace average of mu_(m+1) to that of mu_m
    for m in range(1, line_scenario.depth):
        lo = tk.BlockParams.at_level(line_scenario, m)
        hi = tk.BlockParams.at_level(line_scenario, m + 1)
        lvl = line_scenario.level(m)
        nu_lo = tk.nu_from_mu(line_point_thread.measure(m), lo, check=False)
        nu_hi = tk.nu_from_mu(line_point_thread.measure(m + 1), hi, check=False)
        pushed = tk.pushforward_dual(nu_hi, lvl.E)
        for n in range(-4, 5):
            assert abs(pushed.moment([n]) / lvl.det_D() - nu_lo.moment([n])) < 1e-13


def test_a_used_thread_pickles_with_its_psi_values(planar_scenario):
    # the thread holds each level's normalized measure from construction; its
    # multipliers are module-level functions bound by functools.partial
    thread = tk.build_thread(planar_scenario, kind="point", y1=np.array([0.3, 0.55]))
    words = [tk.Word(p=(1, 0), n=(2, -1), q=(1, 0), level=m) for m in range(1, 4)]
    words.append(tk.Word(p=(0, 2), n=(-1, 3), q=(0, 2), level=2))
    values = [tk.psi_eval(thread, w) for w in words]
    restored = pickle.loads(pickle.dumps(thread))
    assert [tk.psi_eval(restored, w) for w in words] == values
    assert all(v != 0 for v in values)


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


@pytest.mark.parametrize("y", [np.nan, np.inf])
def test_preimage_points_rejects_a_non_finite_point(y):
    # a NaN point once raised ArithmeticError ("found 3 preimages"), not bad input
    with pytest.raises(ValueError, match="y must be finite"):
        tk.preimage_points([y], [[2]])


def test_thread_json_round_trip(line_scenario, tmp_path):
    obj = {"kind": "point", "y1": [0.3]}
    thread = tk.thread_from_json(obj, line_scenario)
    assert tk.validate_thread(thread) == []
    obj2 = {"kind": "uniform"}
    t2 = tk.thread_from_json(obj2, line_scenario)
    assert t2.measure(1).moment([1]) == 0.0
    with pytest.raises(ValueError, match="must be an object"):
        tk.thread_from_json('{"kind": "uniform"}', line_scenario)
