"""Suite runner: mapping, determinism, skip semantics, report rendering."""

from __future__ import annotations

import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toruskms as tk
from toruskms import suites


@pytest.fixture(autouse=True)
def _small_fuzz(monkeypatch):
    """C11 draws 60 engine instances here, not the report's FUZZ_COUNT."""
    monkeypatch.setattr(suites, "FUZZ_COUNT", 60)


def _small_cfg(seed: int = 0) -> tk.SuiteConfig:
    return tk.SuiteConfig(samples=20, s_samples=6, moment_box=3, seed=seed)


def test_suite_names_cover_all_checks():
    assert set(tk.SUITES) == {"kms", "subinv", "roundtrip", "consistency", "reconcile", "all"}
    assert tk.SUITES["kms"] == ("C05", "C06", "C11")
    assert tk.SUITES["subinv"] == ("C01", "C02", "C04")
    assert tk.SUITES["roundtrip"] == ("C03", "C09", "C10")
    assert tk.SUITES["consistency"] == ("C07", "C12")
    assert tk.SUITES["reconcile"] == ("C08",)
    assert set(tk.SUITES["all"]) == {f"C{i:02d}" for i in range(1, 13)}


def test_all_checks_pass_on_line_tower(line_point_thread):
    rows = tk.run_checks(tk.SUITES["all"], line_point_thread, _small_cfg())
    assert rows
    assert tk.overall_pass(rows)
    assert all(row.status in ("pass", "skip") for row in rows)


def test_subset_rows_match_full_run(line_uniform_thread):
    cfg = _small_cfg(seed=11)
    full = tk.run_checks(tk.SUITES["all"], line_uniform_thread, cfg)
    ids = [r.check_id for r in full]
    assert ids == sorted(ids)
    assert set(ids) == set(tk.SUITES["all"])
    for cid in tk.SUITES["all"]:
        alone = tk.run_checks((cid,), line_uniform_thread, cfg)
        assert alone == [r for r in full if r.check_id == cid], cid


class _CountingGenerator:
    """A numpy Generator that counts the calls made to its methods."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.calls = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return method(*args, **kwargs)

        return counted


@pytest.mark.parametrize("check_id", ["C05", "C11"])
def test_batched_checks_draw_with_as_many_generator_calls_at_any_size(
    check_id, planar_scenario, planar_point_thread, monkeypatch
):
    # C05 sizes by samples and C11 by FUZZ_COUNT; each draws per kind, not per word
    check = {cid: fn for cid, _title, fn in tk.CHECKS}[check_id]
    calls = []
    for samples, fuzz_count in ((10, 40), (100, 400)):
        rng = _CountingGenerator(0)
        monkeypatch.setattr(suites, "FUZZ_COUNT", fuzz_count)
        check(planar_scenario, planar_point_thread, tk.SuiteConfig(samples=samples), rng)
        calls.append(rng.calls)
    assert calls[0] == calls[1]


def test_seed_changes_results(line_uniform_thread):
    one = tk.run_checks(("C01",), line_uniform_thread, _small_cfg(seed=1))
    two = tk.run_checks(("C01",), line_uniform_thread, _small_cfg(seed=2))
    assert one[0].residual != two[0].residual


def test_reconcile_skips_off_line_dimensions(planar_uniform_thread):
    rows = tk.run_checks(("C08",), planar_uniform_thread, _small_cfg())
    assert len(rows) == 1
    assert rows[0].status == "skip"
    assert "d = k = 1" in rows[0].quantity
    assert tk.overall_pass(rows)  # a skip is not a failure


def test_checks_read_the_tower_from_the_thread(line_scenario, line_point_thread):
    # the thread is the one input, so C02-C04 cannot take their blocks from one
    # tower while C05, C07 and C12 evaluate the state on the thread's own
    assert list(inspect.signature(tk.run_checks).parameters) == ["check_ids", "thread", "cfg"]
    hot = tk.Scenario(dims=line_scenario.dims, beta=3.0, levels=line_scenario.levels)
    thread = tk.build_thread(hot, kind="point", y1=np.array([0.3]))
    rows = tk.run_checks(tk.SUITES["all"], thread, _small_cfg())
    assert tk.overall_pass(rows)
    masses = [row.value for row in rows if row.check_id == "C02" and row.level > 0]
    assert masses == pytest.approx([1.0 / (3.0 * lvl.r[0]) for lvl in hot.levels], rel=1e-12)
    cold = tk.run_checks(("C02",), line_point_thread, _small_cfg())
    assert [row.value for row in cold if row.level > 0] == pytest.approx(
        [1.0 / lvl.r[0] for lvl in line_scenario.levels], rel=1e-12
    )


@pytest.mark.parametrize("check_id", tk.SUITES["all"])
def test_no_check_alone_passes_on_a_tower_with_a_negative_theta(line_scenario, check_id):
    # C08 samples no tower data and C01, C06, C09-C11 draw their own blocks, so
    # only the thread's construction can refuse the tower for them
    levels = list(line_scenario.levels)
    levels[1] = tk.LevelData(theta=-levels[1].theta, D=levels[1].D, E=levels[1].E, r=levels[1].r)
    bad = tk.Scenario(dims=line_scenario.dims, beta=line_scenario.beta, levels=tuple(levels))
    with pytest.raises(tk.ConstraintViolation, match="level 2: theta entries must be nonnegative"):
        tk.run_checks((check_id,), tk.build_thread(bad, kind="point", y1=[0.3]), _small_cfg())


def test_unknown_check_id_rejected(line_uniform_thread):
    with pytest.raises(ValueError):
        tk.run_checks(("C99",), line_uniform_thread, _small_cfg())


def test_corrupted_thread_fails_consistency(line_scenario):
    good = tk.build_thread(line_scenario, kind="point", y1=np.array([0.3]))
    measures = list(good.measures)
    measures[1] = tk.AtomicMeasure(np.array([[0.77]]), np.array([1.0]))
    bad = tk.SolenoidMeasureThread(line_scenario, tuple(measures))
    rows = tk.run_checks(("C07",), bad, _small_cfg())
    assert not tk.overall_pass(rows)
    assert any(r.status == "fail" for r in rows)


def test_render_text_prints_how_a_failing_residual_stands_to_its_bound(line_scenario):
    good = tk.build_thread(line_scenario, kind="point", y1=np.array([0.3]))
    measures = list(good.measures)
    measures[1] = tk.AtomicMeasure(np.array([[0.77]]), np.array([1.0]))
    bad = tk.SolenoidMeasureThread(line_scenario, tuple(measures))
    rows = tk.run_checks(("C07",), bad, _small_cfg())
    lines = tk.render_text(rows).splitlines()
    failing = [line for line in lines if line.startswith("  FAIL level 1:")]
    assert len(failing) == 1 and f"residual {rows[0].residual:.3e} > bound 1.000e-10" in failing[0]
    # a NaN is never within its bound; a row that fails with its residual
    # inside the bound (C10's order row) and every passing row print <=
    synthetic = [
        tk.StateReport("C07", 1, "nan", math.nan, 0.0, math.nan, 1e-10, "fail"),
        tk.StateReport("C10", 0, "order", 0.5, 1.0, 0.0, 0.0, "fail"),
        tk.StateReport("C10", 0, "mass", 1.0, 1.0, 0.0, 1e-12, "pass"),
    ]
    text = tk.render_text(synthetic)
    assert "| residual nan > bound 1.000e-10" in text
    assert "FAIL: order | residual 0.000e+00 <= bound 0.000e+00" in text
    assert "PASS: mass | residual 0.000e+00 <= bound 1.000e-12" in text


def test_render_text_contains_verdict(line_uniform_thread):
    rows = tk.run_checks(("C02",), line_uniform_thread, _small_cfg())
    text = tk.render_text(rows)
    assert "[C02]" in text
    assert "ALL CHECKS PASSED" in text


def test_render_json_round_trips(line_uniform_thread):
    rows = tk.run_checks(("C02", "C03"), line_uniform_thread, _small_cfg())
    payload = json.loads(tk.render_json(rows, {"seed": 0}))
    assert payload["overall_pass"] is True
    assert payload["config"] == {"seed": 0}
    assert len(payload["checks"]) == len(rows)
    first = payload["checks"][0]
    for key in (
        "check_id",
        "level",
        "quantity",
        "value_re",
        "value_im",
        "reference_re",
        "reference_im",
        "residual",
        "bound",
        "pass",
    ):
        assert key in first


def test_render_csv_has_contract_columns(line_uniform_thread):
    rows = tk.run_checks(("C02",), line_uniform_thread, _small_cfg())
    lines = tk.render_csv(rows).strip().splitlines()
    assert lines[0] == (
        "check_id,level,quantity,value_re,value_im,reference_re,reference_im,"
        "residual,bound,pass"
    )
    assert len(lines) == len(rows) + 1


def test_worst_propagates_nan():
    from toruskms.suites import _worst

    assert max(0.5, float("nan")) == 0.5  # the builtin drops a NaN that is not first
    assert np.isnan(_worst([0.5, float("nan")]))
    assert np.isnan(_worst([float("nan"), 0.5]))
    assert _worst([2.0, 1.0]) == 2.0
    assert _worst([np.inf]) == np.inf
    assert _worst([]) == 0.0


_WORST_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf")]),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=500, deadline=None)
@given(values=st.lists(_WORST_VALUES, max_size=12))
def test_worst_is_the_builtin_max_over_zero_unless_a_nan_is_present(values):
    from toruskms.suites import _worst

    for given_values in (values, iter(values)):
        worst = _worst(given_values)
        if any(math.isnan(v) for v in values):
            assert math.isnan(worst)
        else:
            assert worst == max([0.0, *values])


def test_render_csv_without_rows_is_the_header_alone():
    assert tk.render_csv([]) == (
        "check_id,level,quantity,value_re,value_im,reference_re,reference_im,"
        "residual,bound,pass\n"
    )


@pytest.mark.parametrize(
    "value, reference, residual, bound",
    [
        (np.nan, 0.0, 0.0, 1.0),
        (complex(0.0, np.inf), 0.0, 0.0, 1.0),
        (0.0, np.nan, 0.0, 1.0),
        (0.0, 0.0, np.nan, 1.0),
        (0.0, 0.0, 0.0, np.inf),
    ],
)
def test_row_with_a_non_finite_number_fails(value, reference, residual, bound):
    from toruskms.suites import _row

    assert _row("C00", 0, "q", value, reference, residual, bound).status == "fail"
    assert _row("C00", 0, "q", value, reference, residual, bound, status="pass").status == "fail"
    assert _row("C00", 0, "q", 0.0, 0.0, 0.0, 1.0).status == "pass"


@pytest.mark.parametrize("tower", ["line", "planar"])
def test_kms_residuals_pass_on_a_tower_with_r_1_2000(tower, request):
    # e^(beta (q - p).r) overflows here, so a pair twisted in the order whose
    # factor exceeds 1 gives inf * 0 = NaN; C05 twists the other word instead
    scenario = request.getfixturevalue(f"{tower}_scenario")
    scale = 2000.0 / scenario.levels[0].r[0]
    levels = tuple(
        tk.LevelData(theta=lvl.theta, D=lvl.D, E=lvl.E, r=lvl.r * scale) for lvl in scenario.levels
    )
    big = tk.Scenario(dims=scenario.dims, beta=scenario.beta, levels=levels)
    assert tk.validate_scenario(big) == []
    thread = tk.build_thread(big, kind="uniform")
    rows = tk.run_checks(("C05",), thread, _small_cfg())
    assert len(rows) == big.depth
    assert all(np.isfinite(row.residual) and row.status == "pass" for row in rows), rows


def test_positivity_without_defect_samples_is_a_skip(line_scenario, line_point_thread):
    # the top level has no lattice points, so with no sampled s there is no
    # defect to certify; the row is a skip rather than a pass at +infinity
    cfg = tk.SuiteConfig(samples=2, s_samples=0, moment_box=2)
    rows = tk.run_checks(("C04",), line_point_thread, cfg)
    top = [r for r in rows if r.level == line_scenario.depth]
    assert [r.status for r in top] == ["pass", "skip"]
    assert all(r.status == "pass" for r in rows if r.level < line_scenario.depth)
    assert tk.overall_pass(rows)


@pytest.mark.parametrize(
    "size, value",
    [("samples", 0), ("samples", -3), ("s_samples", -1), ("moment_box", -1), ("seed", -1),
     ("samples", 2.5), ("moment_box", 2.0), ("s_samples", float("nan")), ("samples", True)],
)
def test_config_sizes_that_check_nothing_are_rejected(size, value):
    # "over -3 word pairs" or "over 0 word pairs" rows would pass vacuously, a
    # negative seed would fail inside the first check's generator, and a size
    # that is not an int would fail inside a check with a TypeError
    message = "must be at least" if type(value) is int else "must be an int"
    with pytest.raises(ValueError, match=f"{size} {message}"):
        tk.SuiteConfig(**{size: value})


@pytest.mark.parametrize(
    "check_id, option, value", [("C04", "moment_box", 100000), ("C05", "samples", 10**9)]
)
def test_run_checks_refuses_an_oversized_option_before_allocating(
    planar_uniform_thread, check_id, option, value
):
    # each asked numpy for hundreds of GiB and ended in its MemoryError
    message = f"--{option.replace('_', '-')} {value} needs an array"
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            tk.run_checks([check_id], planar_uniform_thread, tk.SuiteConfig(**{option: value}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**25


def test_smallest_config_sizes_are_accepted():
    cfg = tk.SuiteConfig(samples=1, s_samples=0, moment_box=0)
    assert (cfg.samples, cfg.s_samples, cfg.moment_box) == (1, 0, 0)
