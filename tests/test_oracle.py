"""Independent numerical routes against the closed forms."""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toruskms as tk
from toruskms import oracle

from conftest import random_atomic, random_block


def test_quadrature_matches_frozen_laplace_value():
    params = tk.BlockParams(theta=np.array([[1.0]]), r=np.array([1.0]), beta=1.0)
    point = tk.AtomicMeasure(np.array([[0.0]]), np.array([1.0]))
    numeric = tk.laplace_quadrature(point, params, np.array([1]))
    assert abs(numeric - (0.024704523031857644 + 0.15522309613464763j)) < 1e-10


def test_quadrature_matches_closed_form_randomized():
    rng = np.random.default_rng(0)
    for _ in range(6):
        d, k = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        params = random_block(rng, d, k)
        mu = random_atomic(rng, d)
        nu = tk.nu_from_mu(mu, params)
        for _ in range(5):
            n = rng.integers(-4, 5, size=d)
            gap = abs(nu.moment(n) - tk.laplace_quadrature(mu, params, n))
            assert gap < 1e-6


def test_quadrature_doubling_converged(monkeypatch):
    # doubling the panel count moves the answer by far less than the
    # agreement tolerance, so the rule is resolved rather than lucky
    rng = np.random.default_rng(1)
    params = random_block(rng, 1, 2)
    mu = random_atomic(rng, 1)
    n = np.array([3])
    one = tk.laplace_quadrature(mu, params, n)
    monkeypatch.setattr(oracle, "_PANEL_BUDGET", oracle._PANEL_BUDGET / 2)
    two = tk.laplace_quadrature(mu, params, n)
    assert one != two  # the halved budget did double the panels
    assert abs(one - two) < 1e-10


def _reference_axis_integral(z: complex, width: float, panels: int) -> complex:
    x, w = oracle._leggauss()
    edges = np.linspace(0.0, width, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return complex(np.sum(weights * np.exp(z * pts)))


def _reference_quadrature(mu, params, n) -> complex:
    """The per-call quadrature the batch replaced, kept as its bit-for-bit reference."""
    t = np.asarray(n, dtype=float) @ params.theta.T
    decay = params.beta * params.r
    widths = np.log(1.0 / oracle._TRUNC_EPS) / decay
    speed = np.hypot(decay, oracle.TWO_PI * np.abs(t))
    panels = int(max(4, np.max(np.ceil(widths * speed / oracle._PANEL_BUDGET))))
    value = 1.0 + 0j
    for j in range(params.k):
        z = complex(-params.beta * params.r[j], oracle.TWO_PI * t[j])
        value *= _reference_axis_integral(z, float(widths[j]), panels)
    return value * mu.moment(n)


def _bits(value) -> tuple:
    return complex(value).real.hex(), complex(value).imag.hex()


@st.composite
def _quadrature_batches(draw):
    """A block with some zero theta entries, a complex-weighted measure, and a
    batch of rows with repeats, negations in either order and n = 0, unsorted."""
    d, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    theta = rng.uniform(0.0, 1.5, size=(k, d)) * (rng.random((k, d)) < 0.8)
    params = tk.BlockParams(theta=theta, r=rng.uniform(0.5, 2.0, size=k), beta=rng.uniform(0.5, 2.0))
    mu = tk.AtomicMeasure(rng.random((3, d)), rng.normal(size=3) + 1j * rng.normal(size=3))
    row = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
    rows = draw(st.lists(row, min_size=1, max_size=6))
    rows += [[-v for v in r] for r in draw(st.lists(st.sampled_from(rows), max_size=4))]
    rows += draw(st.lists(st.sampled_from(rows), max_size=3)) + [[0] * d] * draw(st.integers(0, 2))
    return mu, params, np.array(draw(st.permutations(rows)), dtype=np.int64)


@settings(max_examples=60, deadline=None)
@given(case=_quadrature_batches())
def test_quadrature_batch_matches_the_per_call_reference_bit_for_bit(case):
    mu, params, N = case
    expected = [_bits(_reference_quadrature(mu, params, n)) for n in N]
    assert [_bits(v) for v in oracle._laplace_batch(mu, params, N)] == expected
    assert _bits(tk.laplace_quadrature(mu, params, N[0])) == expected[0]  # the one-row case


def test_fock_truncation_tail_decreases():
    params = tk.BlockParams(theta=np.array([[1.0]]), r=np.array([1.0]), beta=1.0)
    t1 = tk.FockTruncation(10).tail_weight(params)
    t2 = tk.FockTruncation(20).tail_weight(params)
    assert t2 < t1
    auto = tk.FockTruncation.for_params(params)
    assert auto.tail_weight(params) <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
def test_fock_truncation_search_matches_linear_scan(k):
    def scan(params):
        box = 0
        while tk.FockTruncation(box).tail_weight(params) > 1e-10:
            box += 1
        return box

    for beta_r in (0.01, 0.02, 0.05, 0.1, 0.3, 0.7, 1.0, 2.5, 10.0, 40.0):
        r = beta_r * np.linspace(1.0, 1.5, k)  # unequal rates when k > 1
        params = tk.BlockParams(theta=np.full((k, 2), 0.3), r=r, beta=1.0)
        assert tk.FockTruncation.for_params(params).box == scan(params), beta_r


def test_fock_sum_matches_frozen_geometric_value():
    params = tk.BlockParams(theta=np.array([[1.0]]), r=np.array([1.0]), beta=1.0)
    kappa = tk.AtomicMeasure(np.array([[0.25]]), np.array([1.0]))
    nu = tk.nu_from_kappa(kappa, params)
    assert abs(nu.moment([0]) - 1.5819767068693265) < 1e-15
    word = tk.AlgebraElement.from_word(tk.Word(p=(0,), n=(0,), q=(0,), level=1))
    trunc = tk.FockTruncation.for_params(params)
    numeric = tk.fock_state_eval(kappa, params, word, trunc)
    bound = trunc.tail_weight(params)  # times ||kappa|| = 1
    assert abs(numeric - 1.5819767068693265) <= bound * (1 + 1e-9) + 1e-14


def test_fock_state_matches_closed_form():
    rng = np.random.default_rng(2)
    for _ in range(4):
        d, k = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        params = random_block(rng, d, k)
        kappa = random_atomic(rng, d, mass=1.0 / params.partition_value())
        nu = tk.nu_from_kappa(kappa, params)
        trunc = tk.FockTruncation.for_params(params)
        bound = trunc.tail_weight(params) * abs(kappa.total_mass())
        for _ in range(6):
            p = tuple(rng.integers(0, 3, k))
            w = tk.Word(p=p, n=tuple(rng.integers(-3, 4, d)), q=p, level=1)
            a = tk.AlgebraElement.from_word(w)
            closed = tk.state_eval(nu, params, a)
            numeric = tk.fock_state_eval(kappa, params, a, trunc)
            assert abs(closed - numeric) <= bound * (1 + 1e-9) + 1e-14


def test_fock_state_off_diagonal_is_exact_zero():
    params = tk.BlockParams(theta=np.array([[0.3]]), r=np.array([1.0]), beta=1.0)
    kappa = tk.AtomicMeasure(np.array([[0.1]]), np.array([1.0]))
    w = tk.Word(p=(2,), n=(1,), q=(1,), level=1)
    trunc = tk.FockTruncation.for_params(params)
    assert tk.fock_state_eval(kappa, params, tk.AlgebraElement.from_word(w), trunc) == 0j


def test_truncated_inverse_recovers_nu_within_tail():
    rng = np.random.default_rng(3)
    params = random_block(rng, 2, 2)
    nu = tk.nu_from_mu(random_atomic(rng, 2), params)
    kappa = tk.kappa_from_nu(nu, params)
    box = tk.FockTruncation.for_params(params).box
    bound = tk.geometric_tail_fraction(params, box) * abs(nu.total_mass())
    for n in ([0, 0], [2, -1], [-3, 3]):
        n = np.array(n)
        recovered = tk.truncated_inverse_moment(kappa, params, n, box)
        assert abs(recovered - nu.moment(n)) <= bound * (1 + 1e-9) + 1e-14


def test_geometric_tail_fraction_exact_complement():
    # the complement weight of the box sum: 1 - prod_j (1 - t_j^(B+1));
    # cross-checked against a brute-force double sum in one dimension
    params = tk.BlockParams(theta=np.array([[0.3]]), r=np.array([1.2]), beta=0.9)
    B = 8
    t = np.exp(-0.9 * 1.2)
    brute = sum(t**p for p in range(B + 1, 2000)) * (1 - t)
    assert abs(tk.geometric_tail_fraction(params, B) - brute) < 1e-12


def test_bhs_reconciliation_routes_agree():
    rng = np.random.default_rng(4)
    for _ in range(20):
        y = float(rng.random())
        theta = float(rng.uniform(0.05, 2.0))
        r = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(0.3, 2.0))
        n = int(rng.integers(-5, 6))
        a_value, b_value = tk.bhs_reconciliation(y, theta, r, beta, n)
        assert abs(a_value - b_value) < 1e-10


def test_bhs_rejects_nonpositive_theta():
    with pytest.raises(ValueError, match="density route needs theta > 0"):
        tk.bhs_reconciliation(0.2, 0.0, 1.0, 1.0, 1)


def test_dense_matrices_multiply_like_the_engine():
    rng = np.random.default_rng(5)
    d = k = 2
    box = 3
    params = random_block(rng, d, k)
    kappa = random_atomic(rng, d, atoms=3)
    n_atoms = 3
    occupancy = list(np.ndindex((box + 1,) * k))
    safe = [
        f * n_atoms + a
        for f, occ in enumerate(occupancy)
        if max(occ) <= 1
        for a in range(n_atoms)
    ]
    for _ in range(10):
        wa = tk.Word(
            p=tuple(rng.integers(0, 2, k)),
            n=tuple(rng.integers(-2, 3, d)),
            q=tuple(rng.integers(0, 2, k)),
            level=1,
        )
        wb = tk.Word(
            p=tuple(rng.integers(0, 2, k)),
            n=tuple(rng.integers(-2, 3, d)),
            q=tuple(rng.integers(0, 2, k)),
            level=1,
        )
        a = tk.AlgebraElement(1, {wa: complex(rng.normal(), rng.normal())})
        b = tk.AlgebraElement(1, {wb: complex(rng.normal(), rng.normal())})
        mat = tk.fock_element_matrix(tk.multiply(a, b, params.theta), params, kappa, box)
        two_step = tk.fock_element_matrix(a, params, kappa, box) @ tk.fock_element_matrix(
            b, params, kappa, box
        )
        assert np.max(np.abs((two_step - mat)[:, safe])) < 1e-12


def test_dense_adjoint_is_weighted_conjugate_transpose():
    rng = np.random.default_rng(6)
    params = random_block(rng, 2, 2)
    kappa = random_atomic(rng, 2, atoms=3)
    box = 3
    w = tk.Word(p=(1, 0), n=(1, -2), q=(0, 1), level=1)
    A = tk.fock_word_matrix(w, params, kappa, box)
    Astar = tk.fock_word_matrix(
        tk.Word(p=w.q, n=tuple(-x for x in w.n), q=w.p, level=1), params, kappa, box
    )
    weights = np.kron(np.ones((box + 1) ** 2), kappa.weights.real)
    conj_form = (A.conj().T * weights[None, :]) / weights[:, None]
    assert np.max(np.abs(Astar - conj_form)) < 1e-12


def test_dense_state_matches_closed_form():
    rng = np.random.default_rng(7)
    params = random_block(rng, 1, 1)
    kappa = random_atomic(rng, 1, mass=1.0 / params.partition_value())
    nu = tk.nu_from_kappa(kappa, params)
    trunc = tk.FockTruncation.for_params(params)
    box = trunc.box + 2
    for w in (
        tk.Word(p=(0,), n=(2,), q=(0,), level=1),
        tk.Word(p=(1,), n=(-1,), q=(1,), level=1),
        tk.Word(p=(2,), n=(1,), q=(1,), level=1),
    ):
        dense = tk.fock_dense_state(tk.AlgebraElement.from_word(w), params, kappa, box)
        closed = tk.state_eval(nu, params, tk.AlgebraElement.from_word(w))
        assert abs(dense - closed) < 1e-9


# What oracle.py may take from the closed-form side: data containers, and
# nu_from_mu as route A of bhs_reconciliation.  BlockParams methods that
# compute (theta n)_j or mass constants are closed-form helpers too.
ORACLE_IMPORTS = {
    "AlgebraElement", "AtomicMeasure", "BlockParams", "SolenoidMeasureThread",
    "TorusMeasure", "Word", "nu_from_mu",
}
CLOSED_FORM_METHODS = {"theta_dot", "mass_factor", "partition_value"}


def test_oracle_imports_only_data_containers_from_the_closed_form():
    source = Path(tk.oracle.__file__).read_text()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("toruskms") for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or "toruskms" in (node.module or "")):
            imported.update(a.name for a in node.names)
    assert imported <= ORACLE_IMPORTS, imported - ORACLE_IMPORTS
    used = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not used & CLOSED_FORM_METHODS, used & CLOSED_FORM_METHODS
