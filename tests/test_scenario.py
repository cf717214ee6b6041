"""Tower data: derivation, exact relations, validation, JSON round trip."""

from __future__ import annotations

import json

import numpy as np
import pytest

import toruskms as tk


def test_doubling_tower_thetas(line_scenario):
    # theta_(m+1) = theta_m / (D E) = theta_m / 4 at every step
    assert line_scenario.level(1).theta[0, 0] == 1.0
    assert line_scenario.level(2).theta[0, 0] == 0.25
    assert line_scenario.level(3).theta[0, 0] == 0.0625
    assert line_scenario.level(4).theta[0, 0] == 0.015625
    assert line_scenario.level(2).r[0] == 0.5


def test_relations_hold_exactly(line_scenario, planar_scenario):
    assert tk.validate_scenario(line_scenario) == []
    assert tk.validate_scenario(planar_scenario) == []


def test_relation_uses_real_arithmetic_not_mod_one():
    # theta_1 = 1 is an integer, so a mod-1 implementation would collapse it
    # to 0 and derive theta_2 = 0; the real relation gives 1/4
    levels = tk.derive_levels(
        theta1=np.array([[1.0]]),
        r1=np.array([1.0]),
        D_seq=[np.array([2])] * 2,
        E_seq=[np.array([[2]])] * 2,
    )
    assert levels[1].theta[0, 0] == 0.25


def test_violations_report_broken_relation(line_scenario):
    lv = list(line_scenario.levels)
    bad = tk.LevelData(
        theta=lv[1].theta + 1e-6, D=lv[1].D, E=lv[1].E, r=lv[1].r
    )
    lv[1] = bad
    broken = tk.Scenario(dims=line_scenario.dims, beta=1.0, levels=lv)
    problems = tk.validate_scenario(broken)
    assert problems
    assert any("theta" in p for p in problems)


def test_validate_scenario_has_no_tolerance_keyword(line_scenario):
    with pytest.raises(TypeError):
        tk.validate_scenario(line_scenario, tol=1.0)


def test_violations_report_broken_rates(line_scenario):
    lv = list(line_scenario.levels)
    lv[2] = tk.LevelData(
        theta=lv[2].theta, D=lv[2].D, E=lv[2].E, r=lv[2].r * (1 + 1e-6)
    )
    broken = tk.Scenario(dims=line_scenario.dims, beta=1.0, levels=lv)
    assert any("r^" in p or "rate" in p for p in tk.validate_scenario(broken))


def test_nonpositive_beta_is_a_violation(line_scenario):
    broken = tk.Scenario(dims=line_scenario.dims, beta=-1.0, levels=line_scenario.levels)
    assert any("beta" in p for p in tk.validate_scenario(broken))


def test_derive_rejects_negative_theta():
    # E = [[1,2],[2,1]] has det -3; applying its inverse to a positive theta
    # can produce negative entries, which the derivation must refuse
    with pytest.raises(tk.NonNonnegativeTheta):
        tk.derive_levels(
            theta1=np.array([[0.9, 0.1]]),
            r1=np.array([1.0]),
            D_seq=[np.array([2])] * 2,
            E_seq=[np.array([[1, 2], [2, 1]])] * 2,
        )


def test_derive_rejects_singular_E():
    with pytest.raises(tk.SingularE):
        tk.derive_levels(
            theta1=np.array([[1.0]]),
            r1=np.array([1.0]),
            D_seq=[np.array([2])] * 2,
            E_seq=[np.array([[0]])] * 2,
        )


def test_level_data_static_constraints_reported():
    # constructors keep shape and integrality; value constraints surface
    # through violations() so a whole file can be reported at once
    neg_theta = tk.LevelData(
        theta=np.array([[-0.1]]), D=np.array([2]), E=np.array([[2]]), r=np.array([1.0])
    )
    assert any("theta" in v for v in neg_theta.violations())
    small_D = tk.LevelData(
        theta=np.array([[0.1]]), D=np.array([1]), E=np.array([[2]]), r=np.array([1.0])
    )
    assert any("D" in v for v in small_D.violations())
    bad_r = tk.LevelData(
        theta=np.array([[0.1]]), D=np.array([2]), E=np.array([[2]]), r=np.array([-1.0])
    )
    assert any("r " in v or "r has" in v for v in bad_r.violations())


def test_det_E_at_least_two_reported():
    small = tk.LevelData(
        theta=np.array([[0.1]]), D=np.array([2]), E=np.array([[1]]), r=np.array([1.0])
    )
    assert any("det E" in v for v in small.violations())
    ok = tk.LevelData(
        theta=np.array([[0.1]]), D=np.array([2]), E=np.array([[2]]), r=np.array([1.0])
    )
    assert ok.violations() == []


def test_level_data_rejects_non_integer_matrices():
    with pytest.raises(ValueError):
        tk.LevelData(
            theta=np.array([[0.1]]), D=np.array([2.5]), E=np.array([[2]]), r=np.array([1.0])
        )
    with pytest.raises(ValueError):
        tk.LevelData(
            theta=np.array([[0.1]]), D=np.array([2]), E=np.array([[2.5]]), r=np.array([1.0])
        )


def test_scenario_level_indexing(line_scenario):
    assert line_scenario.depth == 4
    assert line_scenario.level(1) is line_scenario.levels[0]
    with pytest.raises(ValueError):
        line_scenario.level(5)
    with pytest.raises(ValueError):
        line_scenario.level(0)


def test_json_derive_mode_round_trip(tmp_path):
    obj = {
        "d": 1,
        "k": 1,
        "beta": 1.0,
        "mode": "derive",
        "theta1": [[1.0]],
        "r1": [1.0],
        "D": [[2], [2], [2]],
        "E": [[[2]], [[2]], [[2]]],
    }
    sc = tk.scenario_from_json(obj)
    assert sc.depth == 3
    assert tk.validate_scenario(sc) == []
    # to_json emits explicit mode; reloading reproduces the tower
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(tk.scenario_to_json(sc)))
    sc2 = tk.scenario_from_json(json.loads(path.read_text()))
    assert tk.validate_scenario(sc2) == []
    for m in range(1, sc.depth + 1):
        assert np.array_equal(sc.level(m).theta, sc2.level(m).theta)
        assert np.array_equal(sc.level(m).r, sc2.level(m).r)


def test_json_explicit_mode(planar_scenario):
    obj = tk.scenario_to_json(planar_scenario)
    assert obj["mode"] == "explicit"
    sc = tk.scenario_from_json(json.dumps(obj))
    assert tk.validate_scenario(sc) == []
    assert sc.dims == planar_scenario.dims


def test_json_missing_field_raises():
    with pytest.raises(ValueError):
        tk.scenario_from_json({"d": 1, "k": 1})


def test_json_mismatched_DE_lengths():
    with pytest.raises(ValueError):
        tk.scenario_from_json(
            {
                "d": 1,
                "k": 1,
                "beta": 1.0,
                "theta1": [[1.0]],
                "r1": [1.0],
                "D": [[2], [2]],
                "E": [[[2]]],
            }
        )


def test_non_finite_entries_are_violations(planar_scenario):
    levels = list(planar_scenario.levels)
    theta = levels[1].theta.copy()
    theta[0, 0] = np.nan
    levels[1] = tk.LevelData(theta=theta, D=levels[1].D, E=levels[1].E, r=levels[1].r)
    nan_theta = tk.Scenario(dims=planar_scenario.dims, beta=0.8, levels=levels)
    problems = tk.validate_scenario(nan_theta)
    assert any("level 2: theta has a non-finite entry" in p for p in problems)
    # the relations touching level 2 are NaN, which is a violation too
    assert any(p.startswith("levels 1->2: D_m theta") for p in problems)
    assert any(p.startswith("levels 2->3: D_m theta") for p in problems)
    inf_beta = tk.Scenario(dims=planar_scenario.dims, beta=np.inf, levels=planar_scenario.levels)
    assert any("beta" in p for p in tk.validate_scenario(inf_beta))
