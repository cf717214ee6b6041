"""Torus measures as moment oracles: representations, maps, positivity."""

from __future__ import annotations

import cmath
import csv
import functools
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toruskms as tk

from conftest import random_atomic, random_block


def test_atomic_moments_match_direct_sum():
    rng = np.random.default_rng(0)
    mu = random_atomic(rng, 2, atoms=4)
    n = np.array([2, -1])
    direct = sum(
        w * np.exp(2j * np.pi * (x @ n)) for x, w in zip(mu.points, mu.weights)
    )
    assert abs(mu.moment(n) - direct) < 1e-14


def test_atomic_points_reduced_mod_one():
    mu = tk.AtomicMeasure(np.array([[1.25], [-0.5]]), np.array([0.5, 0.5]))
    assert np.allclose(sorted(mu.points[:, 0]), [0.25, 0.5])
    # moments only see the reduced points
    shifted = tk.AtomicMeasure(np.array([[0.25], [0.5]]), np.array([0.5, 0.5]))
    assert abs(mu.moment([3]) - shifted.moment([3])) < 1e-14


def test_uniform_measure_kills_nonzero_moments():
    mu = tk.UniformMeasure(3)
    assert mu.moment([0, 0, 0]) == 1.0
    assert mu.moment([1, 0, -2]) == 0.0
    assert mu.total_mass() == 1.0


def test_moment_zero_is_total_mass():
    rng = np.random.default_rng(1)
    mu = random_atomic(rng, 1, atoms=5, mass=2.5)
    assert abs(mu.moment([0]) - 2.5) < 1e-12
    assert abs(mu.total_mass() - 2.5) < 1e-12


def test_hermitian_symmetry_of_real_measures():
    rng = np.random.default_rng(2)
    mu = random_atomic(rng, 2)
    for n in ([1, 2], [0, 3], [-2, 1]):
        n = np.array(n)
        assert abs(mu.moment(n) - np.conj(mu.moment(-n))) < 1e-14


def test_index_vector_rejects_non_integers():
    mu = tk.UniformMeasure(2)
    with pytest.raises(ValueError):
        mu.moment([0.5, 0.0])
    with pytest.raises(ValueError):
        mu.moment([1])  # wrong dimension


def test_pushforward_dual_atomic_matches_index_map():
    rng = np.random.default_rng(5)
    mu = random_atomic(rng, 2)
    E = np.array([[2, 1], [0, 1]])
    pushed = tk.pushforward_dual(mu, E)
    for n in ([1, 0], [0, 1], [2, -1]):
        n = np.array(n)
        assert abs(pushed.moment(n) - mu.moment(E @ n)) < 1e-13


def test_pushforward_dual_uniform_stays_uniform():
    mu = tk.UniformMeasure(2)
    pushed = tk.pushforward_dual(mu, np.array([[2, 0], [1, 3]]))
    assert pushed.moment([0, 0]) == 1.0
    assert pushed.moment([1, 1]) == 0.0


def test_pushforward_dual_rejects_singular_matrix():
    mu = tk.UniformMeasure(2)
    with pytest.raises(ValueError, match="nonzero determinant"):
        tk.pushforward_dual(mu, np.array([[1, 1], [1, 1]]))


@settings(max_examples=40, deadline=None)
@given(
    n1=st.integers(min_value=-4, max_value=4),
    n2=st.integers(min_value=-4, max_value=4),
    y=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_point_mass_moment_is_unit_phase(n1, n2, y):
    mu = tk.AtomicMeasure(np.array([[y, 0.25]]), np.array([1.0]))
    value = mu.moment([n1, n2])
    expected = np.exp(2j * np.pi * (y * n1 + 0.25 * n2))
    assert abs(value - expected) < 1e-12
    assert abs(abs(value) - 1.0) < 1e-12


def test_positivity_accepts_probability_measures():
    rng = np.random.default_rng(6)
    mu = random_atomic(rng, 1, atoms=4)
    verdict = tk.positivity_test(mu)
    assert verdict.is_positive
    assert verdict.min_eigenvalue > -1e-10


def test_positivity_flags_signed_measures_with_witness():
    from toruskms.torus_measure import _moment_matrix

    mu = tk.AtomicMeasure(np.array([[0.1], [0.6]]), np.array([1.0, -0.5]))
    verdict = tk.positivity_test(mu)
    assert not verdict.is_positive
    assert verdict.kind == "not_positive"
    # the witness is the eigenvector of the negative eigenvalue
    assert verdict.min_eigenvalue < -1e-8
    T = _moment_matrix(tk.moment_table(mu, verdict.moment_radius), verdict.moment_radius)
    w = verdict.eigen_witness
    assert abs(np.vdot(w, T @ w) - verdict.min_eigenvalue) < 1e-12
    text = verdict.describe()
    assert "not positive" in text


def test_positivity_gate_is_a_constant():
    # an eigenvalue in [-1e-7, -1e-8) once passed check_subinvariance's looser
    # default; every caller now refutes positivity at the same gate
    assert tk.torus_measure.POSITIVITY_TOL == 1e-8
    mu = tk.AtomicMeasure(np.array([[0.1], [0.6]]), np.array([1.0, -0.5]))
    with pytest.raises(TypeError):
        tk.positivity_test(mu, tol=10.0)


def _fejer_mean(table, radius, grid_n):
    """The Fejer mean of order radius on the grid (Z/grid_n)^d, by FFT."""
    d = table.ndim
    weights = 1.0 - np.abs(np.arange(-radius, radius + 1)) / (radius + 1.0)
    coeffs = table * functools.reduce(np.multiply.outer, [weights] * d)
    padded = np.zeros((grid_n,) * d, dtype=complex)
    axis = np.arange(-radius, radius + 1) % grid_n
    padded[np.ix_(*([axis] * d))] = coeffs
    return np.fft.fftn(padded).real


@st.composite
def _signed_measures(draw):
    """(measure, radius): a real signed atomic measure, or a defect measure of one."""
    d = draw(st.integers(1, 3))
    atoms = draw(st.integers(1, 5))
    unit = st.floats(0.0, 1.0, exclude_max=True)
    points = draw(st.lists(st.lists(unit, min_size=d, max_size=d), min_size=atoms, max_size=atoms))
    weights = draw(st.lists(st.floats(-1.0, 1.0), min_size=atoms, max_size=atoms))
    mu = tk.AtomicMeasure(np.array(points), np.array(weights))
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        entries = lambda low, high, size: st.lists(
            st.floats(low, high), min_size=size, max_size=size
        )
        params = tk.BlockParams(
            theta=np.array(draw(entries(0.0, 1.5, k * d))).reshape(k, d),
            r=np.array(draw(entries(0.5, 2.0, k))),
            beta=draw(st.floats(0.5, 2.0)),
        )
        mu = tk.defect_measure_cts(mu, np.array(draw(entries(0.0, 3.0, k))), params)
    return mu, draw(st.integers(0, 4))


@settings(max_examples=200, deadline=None)
@given(case=_signed_measures())
def test_fejer_mean_never_falls_below_the_spectrum_floor(case):
    # The Fejer mean at x is (N+1)^-d v(x)* T v(x), v(x)_a = e^(2 pi i a.x):
    # a Rayleigh quotient of the moment matrix T.  So the density test the
    # certificate once ran beside the spectrum could never refute positivity
    # where the spectrum passed, and the one-part verdict equals the two-part one.
    mu, radius = case
    table = tk.moment_table(mu, radius)
    scale = max(1.0, float(np.max(np.abs(table))))
    verdict = tk.positivity_test(mu, moment_radius=radius)
    density = _fejer_mean(table, radius, {1: 256, 2: 64, 3: 32}[mu.d])
    assert density.min() >= verdict.min_eigenvalue - 1e-12 * scale
    two_part = density.min() >= -1e-8 and verdict.min_eigenvalue >= -1e-8
    assert verdict.is_positive == two_part
    assert (verdict.eigen_witness is None) == verdict.is_positive


def test_positivity_two_dimensional():
    rng = np.random.default_rng(7)
    mu = random_atomic(rng, 2, atoms=3)
    assert tk.positivity_test(mu).is_positive
    signed = tk.AtomicMeasure(rng.random((2, 2)), np.array([0.8, -0.3]))
    assert not tk.positivity_test(signed).is_positive


def test_positivity_rejects_non_hermitian_moments():
    # a multiplier that breaks Hermitian symmetry cannot come from a real
    # measure, and the certificate refuses to classify it
    base = tk.UniformMeasure(1)
    broken = tk.MultipliedMeasure(base, lambda n: 1.0 + 0.5j, tag="broken")
    with pytest.raises(ValueError):
        tk.positivity_test(broken)


def test_the_hermitian_gate_is_relative_to_the_largest_moment():
    # 1 + 1e-12j on a measure of mass 1000 leaves a defect of 2e-9, rounding at
    # that scale: under 1e-9 times the largest moment, over 1e-9 divided by it
    heavy = tk.AtomicMeasure(np.array([[0.1], [0.4], [0.7]]), np.array([400.0, 350.0, 250.0]))
    tilted = tk.MultipliedMeasure(heavy, lambda n: 1.0 + 1e-12j, tag="tilt")
    assert tk.positivity_test(tilted).is_positive


@pytest.mark.parametrize("d, radius", [(1, 5), (2, 3), (3, 4)])
def test_the_certificate_eigenvalue_is_the_full_decompositions(d, radius):
    # the verdict takes the eigenvalues alone (eigvalsh); they agree with the
    # full decomposition's to rounding, and a refutation carries its eigenvector
    from toruskms.torus_measure import _moment_matrix

    rng = np.random.default_rng(40 + d)
    for signed in (False, True, False, True):
        weights = rng.dirichlet(np.ones(4))
        if signed:
            weights[-1] = -0.6
        mu = tk.AtomicMeasure(rng.random((4, d)), weights)
        verdict = tk.positivity_test(mu, moment_radius=radius)
        T = _moment_matrix(tk.moment_table(mu, radius), radius)
        values, vectors = np.linalg.eigh(T)
        scale = float(np.max(np.abs(values)))
        assert abs(verdict.min_eigenvalue - values[0]) <= 1e-13 * scale
        assert verdict.is_positive == (not signed)
        if signed:
            w = verdict.eigen_witness
            assert w.shape == ((radius + 1) ** d,)
            assert abs(np.linalg.norm(w) - 1.0) <= 1e-12
            assert np.linalg.norm(T @ w - values[0] * w) <= 1e-12 * scale
        else:
            assert verdict.eigen_witness is None


@pytest.mark.parametrize("d", [1, 2])
def test_a_refuted_witness_spans_the_whole_box(d):
    # a negative control: the certificate's matrix is indexed by [0, N]^d, so a
    # smaller box (say max(N, 1) points a side) shows in the witness's length
    points = np.array([[0.1, 0.2], [0.6, 0.7]])[:, :d]
    verdict = tk.positivity_test(tk.AtomicMeasure(points, np.array([1.0, -0.5])), moment_radius=3)
    assert verdict.kind == "not_positive"
    assert verdict.eigen_witness.shape == (4**d,)


def test_moment_table_shape_and_center():
    rng = np.random.default_rng(8)
    mu = random_atomic(rng, 2)
    table = tk.moment_table(mu, radius=2)
    assert table.shape == (5, 5)
    assert abs(table[2, 2] - mu.total_mass()) < 1e-13


def test_atomic_json_round_trip():
    rng = np.random.default_rng(9)
    mu = random_atomic(rng, 2, atoms=3)
    atoms = [{"x": x.tolist(), "w": float(w.real)} for x, w in zip(mu.points, mu.weights)]
    obj = {"atoms": atoms}
    back = tk.atomic_from_json(json.loads(json.dumps(obj)))
    assert np.allclose(back.points, mu.points)
    assert np.allclose(back.weights, mu.weights)
    with pytest.raises(ValueError, match="must be an object"):
        tk.atomic_from_json(json.dumps(obj))


def test_moment_csv_columns_and_determinism():
    rng = np.random.default_rng(10)
    mu = random_atomic(rng, 2)
    text1 = tk.write_moment_csv(mu, radius=1)
    text2 = tk.write_moment_csv(mu, radius=1)
    assert text1 == text2
    lines = text1.strip().splitlines()
    assert lines[0] == "n_1,n_2,Re,Im"
    assert len(lines) == 1 + 9
    rows = list(csv.reader(io.StringIO(text1)))
    assert [int(v) for v in rows[5][:2]] == [0, 0]  # np.ndindex order puts n = 0 mid-box
    assert abs(complex(float(rows[5][2]), float(rows[5][3])) - mu.total_mass()) < 1e-15


def test_index_vector_rejects_non_finite():
    # NaN casts to an int64 that passes the integrality test, so it is
    # rejected before the cast
    mu = tk.AtomicMeasure.point_mass([0.3])
    for bad in ([np.nan], [np.inf], [-np.inf]):
        with pytest.raises(ValueError, match="finite"):
            mu.moment(bad)


@pytest.mark.parametrize(
    "points, weights",
    [([[0.3]], [np.nan]), ([[np.nan]], [1.0]), ([[np.inf]], [1.0]), ([[0.3]], [complex(0, np.inf)])],
)
def test_atomic_measure_rejects_non_finite(points, weights):
    with pytest.raises(ValueError, match="finite"):
        tk.AtomicMeasure(np.array(points), np.array(weights))


def test_positivity_gate_rejects_nan_moments():
    # NaN moments must not slip past the Hermitian gate into eigh
    poisoned = tk.MultipliedMeasure(tk.UniformMeasure(1), lambda N: np.nan, tag="nan")
    with pytest.raises(ValueError, match="Hermitian"):
        tk.positivity_test(poisoned, moment_radius=2)


def test_multiplier_must_broadcast_to_the_batch():
    base = tk.UniformMeasure(1)
    wrong = tk.MultipliedMeasure(base, lambda N: np.ones((len(N), 2)), tag="wrong")
    with pytest.raises(ValueError):
        wrong.moments(np.array([[0], [1]]))


def _double_loop_moment_matrix(table, radius):
    """The per-entry builder the gather replaced; kept as the reference."""
    d = table.ndim
    grid = [np.asarray(idx, dtype=np.int64) for idx in np.ndindex((radius + 1,) * d)]
    size = len(grid)
    T = np.empty((size, size), dtype=complex)
    for a in range(size):
        for b in range(size):
            T[a, b] = table[tuple(grid[a] - grid[b] + radius)]
    return T


@pytest.mark.parametrize("d, radius", [(1, 0), (1, 5), (2, 3), (3, 2)])
def test_moment_matrix_gather_equals_double_loop(d, radius):
    from toruskms.torus_measure import _moment_matrix

    rng = np.random.default_rng(d * 10 + radius)
    shape = (2 * radius + 1,) * d
    table = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    gathered = _moment_matrix(table, radius)
    reference = _double_loop_moment_matrix(table, radius)
    assert gathered.shape == reference.shape
    assert np.array_equal(gathered, reference)


def _chained_measures(rng, d):
    params = random_block(rng, d, 2)
    mu = random_atomic(rng, d)
    nu = tk.nu_from_mu(mu, params, check=False)
    E = np.eye(d, dtype=np.int64) * 2
    E[0, -1] += 1
    return {
        "atomic": mu,
        "uniform": tk.UniformMeasure(d),
        "laplace chain": tk.nu_from_kappa(tk.kappa_from_nu(nu, params), params),
        "defect": tk.defect_measure_cts(nu, [0.3, 1.2], params),
        "finite defect": tk.defect_measure_finite(nu, [[1, 0], [0, 2]], params),
        "mapped": tk.MappedIndexMeasure(nu, E),
    }


@pytest.mark.parametrize("d", [1, 2, 3])
def test_moment_table_equals_per_index_moments(d):
    # a batch of one row and a batch of many may round a product or a sum in
    # another order (BLAS kernels, SIMD loops), so entries agree to a few ulps
    rng = np.random.default_rng(40 + d)
    radius = 2
    for name, mu in _chained_measures(rng, d).items():
        table = tk.moment_table(mu, radius)
        assert table.shape == (2 * radius + 1,) * d
        scalar = np.empty_like(table)
        for idx in np.ndindex(table.shape):
            scalar[idx] = mu.moment(np.asarray(idx) - radius)
        scale = max(1.0, float(np.max(np.abs(scalar))))
        assert np.max(np.abs(table - scalar)) <= 1e-14 * scale, name


# --- batched moments against closed forms evaluated one index at a time in
# scalar Python (cmath), sharing no code with the package's multipliers


def _scalar_theta_dot(params, n):
    return [sum(float(params.theta[j, i]) * int(n[i]) for i in range(params.d))
            for j in range(params.k)]


def _scalar_laplace(params, n, power):
    out = 1.0 + 0j
    for r_j, t_j in zip(params.r, _scalar_theta_dot(params, n)):
        out *= complex(params.beta * r_j, -2.0 * cmath.pi * t_j) ** power
    return out


def _scalar_geometric(params, n, power):
    out = 1.0 + 0j
    for r_j, t_j in zip(params.r, _scalar_theta_dot(params, n)):
        out *= (1.0 - cmath.exp(-params.beta * r_j + 2j * cmath.pi * t_j)) ** power
    return out


def _scalar_cts_defect(params, s, n):
    out = 1.0 + 0j
    for s_j, r_j, t_j in zip(s, params.r, _scalar_theta_dot(params, n)):
        out *= 1.0 - cmath.exp(-params.beta * s_j * r_j + 2j * cmath.pi * s_j * t_j)
    return out


def _scalar_finite_defect(params, F, n):
    t = _scalar_theta_dot(params, n)
    out = 1.0 + 0j
    for p in F:
        gap = sum(p_j * r_j for p_j, r_j in zip(p, params.r))
        phase = sum(p_j * t_j for p_j, t_j in zip(p, t))
        out *= 1.0 - cmath.exp(-params.beta * gap + 2j * cmath.pi * phase)
    return out


_LAYERS = (
    "nu_from_mu", "mu_from_nu", "nu_from_kappa", "kappa_from_nu",
    "defect_cts", "defect_finite", "pushforward_dual",
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    d=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=1, max_value=3),
    base_kind=st.sampled_from(("atomic", "uniform", "laplace")),
    layer=st.sampled_from(_LAYERS),
)
def test_batched_moments_match_scalar_closed_forms(seed, d, k, base_kind, layer):
    rng = np.random.default_rng(seed)
    params = random_block(rng, d, k)
    radius = 2
    atoms = random_atomic(rng, d)
    # a non-atomic, non-uniform base, so pushforward_dual maps its indices
    base_params = random_block(rng, d, k)
    if base_kind == "atomic":
        base = atoms
    elif base_kind == "uniform":
        base = tk.UniformMeasure(d)
    else:
        base = tk.nu_from_mu(atoms, base_params)

    def base_factor(n):
        return _scalar_laplace(base_params, n, -1) if base_kind == "laplace" else 1.0

    def base_moment(n):
        if base_kind == "uniform":
            return 1.0 + 0j if not any(n) else 0j
        return base_factor(n) * sum(
            complex(w) * cmath.exp(2j * cmath.pi * sum(float(x[i]) * int(n[i]) for i in range(d)))
            for x, w in zip(atoms.points, atoms.weights)
        )

    s = rng.uniform(0.0, 3.0, size=k)
    F = [np.eye(k, dtype=np.int64)[j] * (j + 1) for j in range(k)]
    E = np.eye(d, dtype=np.int64) * 2
    E[0, -1] += 1
    # layer -> (measure, scalar multiplier at n, index the base is read at)
    same = lambda n: n
    layers = {
        "nu_from_mu": (tk.nu_from_mu(base, params, check=False),
                       lambda n: _scalar_laplace(params, n, -1), same),
        "mu_from_nu": (tk.mu_from_nu(base, params, check=False),
                       lambda n: _scalar_laplace(params, n, 1), same),
        "nu_from_kappa": (tk.nu_from_kappa(base, params),
                          lambda n: _scalar_geometric(params, n, -1), same),
        "kappa_from_nu": (tk.kappa_from_nu(base, params),
                          lambda n: _scalar_geometric(params, n, 1), same),
        "defect_cts": (tk.defect_measure_cts(base, s, params),
                       lambda n: _scalar_cts_defect(params, s, n), same),
        "defect_finite": (tk.defect_measure_finite(base, F, params),
                          lambda n: _scalar_finite_defect(params, F, n), same),
        "pushforward_dual": (tk.pushforward_dual(base, E), lambda n: 1.0,
                             lambda n: [sum(int(E[i, j]) * int(n[j]) for j in range(d))
                                        for i in range(d)]),
    }
    mu, multiplier, read_at = layers[layer]
    if base_kind == "laplace" and layer == "pushforward_dual":
        assert isinstance(mu, tk.MappedIndexMeasure)

    N = np.asarray(list(np.ndindex((2 * radius + 1,) * d)), dtype=np.int64) - radius
    got = mu.moments(N)
    assert got.shape == (len(N),)
    # relative to the size of the summed terms: |multipliers| * total variation
    variation = 1.0 if base_kind == "uniform" else float(np.sum(np.abs(atoms.weights)))
    for n, value in zip(N, got):
        want = multiplier(n) * base_moment(read_at(n))
        scale = abs(multiplier(n) * base_factor(read_at(n))) * variation
        assert abs(value - want) <= 1e-13 * scale, (layer, n.tolist())
