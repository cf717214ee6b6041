"""Word algebra: normal form products, adjoints, dynamics, states, parsing."""

from __future__ import annotations

import copy
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toruskms as tk
from toruskms.toeplitz_algebra import _pack, _state_values

from conftest import random_atomic, random_block


def _theta(value: float = 1.0) -> np.ndarray:
    return np.array([[value]])


def test_product_collapses_to_single_word():
    # (V0 U1 V*1)(V2 U0 V*0): join of 1 and 2 is 2, so the result is
    # V1 U1 V*0 with phase e^(2 pi i theta) from the crossing
    a = tk.AlgebraElement.from_word(tk.Word(p=(0,), n=(1,), q=(1,), level=1))
    b = tk.AlgebraElement.from_word(tk.Word(p=(2,), n=(0,), q=(0,), level=1))
    prod = tk.multiply(a, b, _theta(0.3))
    terms = prod.sorted_terms()
    assert len(terms) == 1
    word, coeff = terms[0]
    assert (word.p, word.n, word.q) == ((1,), (1,), (0,))
    assert abs(coeff - np.exp(2j * np.pi * 0.3)) < 1e-15


def test_isometry_relation():
    # V*_p V_p = 1: represented as (0,0,p) * (p,0,0) -> identity word
    vstar = tk.AlgebraElement.from_word(tk.Word(p=(0,), n=(0,), q=(2,), level=1))
    v = tk.AlgebraElement.from_word(tk.Word(p=(2,), n=(0,), q=(0,), level=1))
    prod = tk.multiply(vstar, v, _theta())
    terms = prod.sorted_terms()
    assert len(terms) == 1
    word, coeff = terms[0]
    assert (word.p, word.n, word.q) == ((0,), (0,), (0,))
    assert abs(coeff - 1.0) < 1e-15


def test_unitary_group_law():
    u1 = tk.AlgebraElement.from_word(tk.Word(p=(0,), n=(2,), q=(0,), level=1))
    u2 = tk.AlgebraElement.from_word(tk.Word(p=(0,), n=(-3,), q=(0,), level=1))
    prod = tk.multiply(u1, u2, _theta(0.7))
    word, coeff = prod.sorted_terms()[0]
    assert word.n == (-1,)
    assert abs(coeff - 1.0) < 1e-15  # no isometry crossing, no phase


def test_rotation_relation_phase():
    # U_n V_p = e^(2 pi i p theta n) V_p U_n
    theta = _theta(0.37)
    u = tk.AlgebraElement.from_word(tk.Word(p=(0,), n=(2,), q=(0,), level=1))
    v = tk.AlgebraElement.from_word(tk.Word(p=(3,), n=(0,), q=(0,), level=1))
    left = tk.multiply(u, v, theta)
    right = tk.multiply(v, u, theta)
    phase = np.exp(2j * np.pi * 3 * 0.37 * 2)
    rotated = tk.AlgebraElement(1, {w: phase * c for w, c in right.terms.items()})
    assert left.sup_coefficient_distance(rotated) < 1e-12


def test_multiply_requires_matching_levels():
    a = tk.AlgebraElement.from_word(tk.Word(p=(0,), n=(0,), q=(0,), level=1))
    b = tk.AlgebraElement.from_word(tk.Word(p=(0,), n=(0,), q=(0,), level=2))
    with pytest.raises(ValueError, match="levels 1 and 2 differ"):
        tk.multiply(a, b, _theta())


def test_adjoint_is_involutive_antihomomorphism():
    rng = np.random.default_rng(0)
    theta = rng.uniform(0, 1, (2, 2))
    words = [
        tk.Word(
            p=tuple(rng.integers(0, 3, 2)),
            n=tuple(rng.integers(-2, 3, 2)),
            q=tuple(rng.integers(0, 3, 2)),
            level=1,
        )
        for _ in range(4)
    ]
    a = tk.AlgebraElement(1, {words[0]: 1 + 2j, words[1]: -0.5j})
    b = tk.AlgebraElement(1, {words[2]: 0.3, words[3]: 2 - 1j})
    assert tk.adjoint(tk.adjoint(a)).sup_coefficient_distance(a) < 1e-15
    lhs = tk.adjoint(tk.multiply(a, b, theta))
    rhs = tk.multiply(tk.adjoint(b), tk.adjoint(a), theta)
    assert lhs.sup_coefficient_distance(rhs) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    data=st.tuples(
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=2, max_size=2),
        st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=2),
    ),
    theta_seed=st.integers(min_value=0, max_value=2**16),
)
def test_associativity_property(data, theta_seed):
    p1, n1, q1, p2, n2, q2 = data
    rng = np.random.default_rng(theta_seed)
    theta = rng.uniform(0, 2, (2, 2))
    a = tk.AlgebraElement.from_word(tk.Word(p=tuple(p1), n=tuple(n1), q=tuple(q1), level=1))
    b = tk.AlgebraElement.from_word(tk.Word(p=tuple(p2), n=tuple(n2), q=tuple(q2), level=1))
    c = tk.AlgebraElement.from_word(tk.Word(p=(1, 0), n=(0, 1), q=(0, 2), level=1))
    left = tk.multiply(tk.multiply(a, b, theta), c, theta)
    right = tk.multiply(a, tk.multiply(b, c, theta), theta)
    assert left.sup_coefficient_distance(right) < 1e-12


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_engine_built_words_equal_public_words(data):
    # multiply and adjoint build their words from int64 arrays, through Word's int-tuple path
    k, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    exponents = lambda low, size: st.tuples(*[st.integers(low, 3)] * size)
    word = st.builds(tk.Word, exponents(0, k), exponents(-3, d), exponents(0, k), st.just(2))
    elements = []
    for _ in range(2):
        words = data.draw(st.lists(word, min_size=1, max_size=3))
        elements.append(tk.AlgebraElement(2, {w: 1.0 + j for j, w in enumerate(words)}))
    a, b = elements
    theta = np.random.default_rng(data.draw(st.integers(0, 2**16))).uniform(0, 2, (k, d))
    built = [*tk.multiply(a, b, theta).terms, *tk.adjoint(a).terms, *tk.adjoint(b).terms]
    assert built
    for w in built:
        public = tk.Word(w.p, w.n, w.q, w.level)
        assert w == public and hash(w) == hash(public)
        assert all(type(v) is int for v in w.p + w.n + w.q + (w.level,))


def test_phase_invariant_under_integer_theta_shift():
    # engine coefficients only see theta mod 1, because integer vectors
    # multiply it on both sides of every exponent
    rng = np.random.default_rng(1)
    theta = rng.uniform(0, 1, (2, 2))
    a = tk.AlgebraElement.from_word(tk.Word(p=(1, 0), n=(2, -1), q=(0, 1), level=1))
    b = tk.AlgebraElement.from_word(tk.Word(p=(0, 2), n=(1, 1), q=(1, 0), level=1))
    one = tk.multiply(a, b, theta)
    two = tk.multiply(a, b, theta + np.array([[3, 1], [0, 2]]))
    assert one.sup_coefficient_distance(two) < 1e-13


def test_dynamics_group_law_and_kms_twist():
    rng = np.random.default_rng(2)
    r = np.array([0.8, 1.3])
    w = tk.Word(p=(2, 0), n=(1, 1), q=(0, 1), level=1)
    a = tk.AlgebraElement(w.level, {w: 1.5 - 0.5j})
    one = tk.apply_dynamics(tk.apply_dynamics(a, 0.7, r), -1.9, r)
    two = tk.apply_dynamics(a, -1.2, r)
    assert one.sup_coefficient_distance(two) < 1e-14
    # imaginary time i*beta produces the damping e^(-beta (p-q).r)
    beta = 1.1
    twisted = tk.apply_dynamics(a, 1j * beta, r)
    gap = (2 - 0) * 0.8 + (0 - 1) * 1.3
    expected = (1.5 - 0.5j) * np.exp(-beta * gap)
    assert abs(twisted.terms[w] - expected) < 1e-14


def test_dynamics_fixes_diagonal_words():
    r = np.array([1.0])
    a = tk.AlgebraElement(1, {tk.Word(p=(2,), n=(3,), q=(2,), level=1): 2.0})
    moved = tk.apply_dynamics(a, 5.3, r)
    assert moved.sup_coefficient_distance(a) < 1e-15


def test_state_eval_diagonal_only():
    rng = np.random.default_rng(3)
    params = random_block(rng, 1, 1)
    mu = random_atomic(rng, 1)
    nu = tk.nu_from_mu(mu, params, check=False)
    c = params.mass_factor()
    nu_n = tk.MultipliedMeasure(nu, lambda n, c=c: c, tag="normalize")
    off = tk.AlgebraElement.from_word(tk.Word(p=(2,), n=(1,), q=(1,), level=1))
    assert tk.state_eval(nu_n, params, off) == 0.0
    diag = tk.AlgebraElement.from_word(tk.Word(p=(2,), n=(1,), q=(2,), level=1))
    expected = np.exp(-params.beta * 2 * params.r[0]) * nu_n.moment([1])
    assert abs(tk.state_eval(nu_n, params, diag) - expected) < 1e-14


def test_state_eval_checks_normalization():
    params = tk.BlockParams(theta=np.array([[0.3]]), r=np.array([1.0]), beta=1.0)
    nu = tk.nu_from_mu(tk.UniformMeasure(1), params)  # mass 1/(beta r) = 1 here
    a = tk.AlgebraElement.from_word(tk.Word(p=(0,), n=(0,), q=(0,), level=1))
    assert abs(tk.state_eval(nu, params, a) - 1.0) < 1e-12
    doubled = tk.MultipliedMeasure(nu, lambda n: 2.0, tag="doubled")
    for bad in (doubled, tk.MultipliedMeasure(nu, lambda n: np.nan, tag="nan")):  # NaN mass too
        with pytest.raises(ValueError, match="state requires mass 1"):
            tk.state_eval(bad, params, a)
    # the ungated functional is linear in nu: twice nu gives twice its value
    assert abs(_state_values(doubled, params, _pack([a], 1, 1))[0] - 2.0) < 1e-12


def test_state_eval_weight_gate_admits_a_zero_weight_atom():
    # a probability measure with an atom of weight 0 is a state; a negative weight is not
    params = tk.BlockParams(theta=np.array([[0.3]]), r=np.array([1.0]), beta=1.0)
    a = tk.AlgebraElement.from_word(tk.Word(p=(0,), n=(0,), q=(0,), level=1))
    points = np.array([[0.2], [0.7]])
    assert tk.state_eval(tk.AtomicMeasure(points, np.array([1.0, 0.0])), params, a) == 1.0
    with pytest.raises(ValueError, match="state requires a nonnegative measure"):
        tk.state_eval(tk.AtomicMeasure(points, np.array([1.2, -0.2])), params, a)


# A batch rounds its atomic moments through other BLAS kernels than one row
# does (the phases n.x and the sum over the atoms), so _state_values and a
# one-element state_eval may differ in the last bits; every other step is
# element by element.  An atom's phase 2 pi n.x, with x in [0, 1), carries at
# most a few eps * 2 pi |n|_1, and the sum over the atoms and the multipliers'
# k factors a few eps more.  So each diagonal term may move by a small multiple
# of eps * |c| e^(-beta p.r) S(n), where S bounds the moment with no
# cancellation: the atoms' total |weight| times (1 + 2 pi |n|_1) at the index
# the atoms see, times each multiplier's modulus.  The worst multiple measured
# over 6,000 random batches was 2.1.  The same bound holds against the
# formula summed term by term with one moment call each, whose weights take
# p.r by np.dot, a few eps apart from the kernel's left-to-right dot.
STATE_ROUNDING = 8


def _moment_scale(nu, N):
    """S(n) per row of N: a bound of |moment(nu, n)| and its rounding that no cancellation lowers."""
    if isinstance(nu, tk.AtomicMeasure):
        return np.abs(nu.weights).sum() * (1.0 + 2.0 * np.pi * np.abs(N).sum(1))
    if isinstance(nu, tk.UniformMeasure):
        return np.ones(len(N))
    if isinstance(nu, tk.MultipliedMeasure):
        return np.abs(np.broadcast_to(nu.multiplier(N), (len(N),))) * _moment_scale(nu.base, N)
    return _moment_scale(nu.base, N @ nu.matrix.T)  # a MappedIndexMeasure


def _measure_of_class(name, rng, d, params):
    mu = random_atomic(rng, d, atoms=int(rng.integers(1, 6)))
    E = 2 * np.eye(d, dtype=np.int64) + np.triu(rng.integers(0, 2, (d, d)), 1)
    return {
        "atomic": lambda: mu,
        "uniform": lambda: tk.UniformMeasure(d),
        "multiplied": lambda: tk.nu_from_mu(mu, params),
        "normalized": lambda: tk.MultipliedMeasure(
            tk.nu_from_mu(mu, params), lambda N: params.mass_factor(), tag="normalize"),
        "mapped index": lambda: tk.pushforward_dual(tk.nu_from_mu(mu, params), E),
    }[name]()


@pytest.mark.parametrize("name", ["atomic", "uniform", "multiplied", "normalized", "mapped index"])
def test_state_values_of_a_batch_match_each_elements_state_eval(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    for size in range(1, 65):
        d, k = (int(v) for v in rng.integers(1, 4, 2))
        params = random_block(rng, d, k)
        nu = _measure_of_class(name, rng, d, params)
        if name == "mapped index":
            assert isinstance(nu, tk.MappedIndexMeasure)
        elements = []
        for _ in range(size):
            terms = {}
            for _ in range(int(rng.integers(0, 4))):
                p = tuple(rng.integers(0, 3, k).tolist())
                q = p if rng.random() < 0.7 else tuple(rng.integers(0, 3, k).tolist())
                word = tk.Word(p=p, n=tuple(rng.integers(-4, 5, d).tolist()), q=q, level=1)
                terms[word] = complex(*rng.normal(size=2))
            elements.append(tk.AlgebraElement(1, terms))
        values = _state_values(nu, params, _pack(elements, k, d))
        assert values.shape == (size,)
        for value, a in zip(values, elements):
            one = _state_values(nu, params, _pack([a], k, d))[0]
            diagonal = [(w, c) for w, c in a.terms.items() if w.p == w.q]
            weights = [np.exp(-params.beta * np.dot(w.p, params.r)) for w, _ in diagonal]
            # the formula term by term, one moment call each
            formula = sum(c * e * nu.moment(w.n) for (w, c), e in zip(diagonal, weights))
            bound = STATE_ROUNDING * np.finfo(float).eps * sum(
                abs(c) * e * _moment_scale(nu, np.array([w.n]))[0]
                for (w, c), e in zip(diagonal, weights))
            assert abs(value - one) <= bound, (size, a)
            assert abs(value - formula) <= bound, (size, a)
            if not diagonal:
                assert value == one == 0


def test_kms_residual_vanishes_for_laplace_states():
    rng = np.random.default_rng(4)
    for d, k in ((1, 1), (2, 2)):
        params = random_block(rng, d, k)
        nu = tk.nu_from_mu(random_atomic(rng, d), params, check=False)
        c = params.mass_factor()
        nu_n = tk.MultipliedMeasure(nu, lambda n, c=c: c, tag="normalize")
        for _ in range(20):
            a = tk.AlgebraElement.from_word(
                tk.Word(
                    p=tuple(rng.integers(0, 4, k)),
                    n=tuple(rng.integers(-3, 4, d)),
                    q=tuple(rng.integers(0, 4, k)),
                    level=1,
                )
            )
            b = tk.AlgebraElement.from_word(
                tk.Word(
                    p=tuple(rng.integers(0, 4, k)),
                    n=tuple(rng.integers(-3, 4, d)),
                    q=tuple(rng.integers(0, 4, k)),
                    level=1,
                )
            )
            assert tk.kms_residual(nu_n, params, a, b) < 1e-10


def _gram_min_eig(nu, params, words):
    size = len(words)
    G = np.zeros((size, size), dtype=complex)
    els = [tk.AlgebraElement.from_word(w) for w in words]
    adj = [tk.adjoint(e) for e in els]
    for i in range(size):
        for j in range(size):
            product = tk.multiply(adj[i], els[j], params.theta)
            G[i, j] = _state_values(nu, params, _pack([product], params.k, params.d))[0]
    return float(np.min(np.linalg.eigvalsh((G + G.conj().T) / 2)))


def test_gram_positivity_separates_states():
    # the twisted-trace identity holds for EVERY diagonal functional (it is
    # engine bookkeeping), so wrongness must surface as a positivity failure:
    # phi(a*a) < 0 for some a.  A state built with too much damping (beta
    # larger than the dynamics uses) has a signed defect and a negative Gram
    # eigenvalue over words mixing U_n with V U_n V*.
    params = tk.BlockParams(theta=np.array([[0.37]]), r=np.array([1.0]), beta=1.0)
    overdamped = tk.BlockParams(theta=np.array([[0.37]]), r=np.array([1.0]), beta=1.7)
    point = tk.AtomicMeasure(np.array([[0.2]]), np.array([1.0]))
    words = [tk.Word(p=(0,), n=(n,), q=(0,), level=1) for n in range(-3, 4)]
    words += [tk.Word(p=(1,), n=(n,), q=(1,), level=1) for n in range(-3, 4)]

    def normalized(block):
        nu = tk.nu_from_mu(point, block, check=False)
        c = block.mass_factor()
        return tk.MultipliedMeasure(nu, lambda n, c=c: c, tag="normalize")

    assert _gram_min_eig(normalized(params), params, words) > -1e-10
    assert _gram_min_eig(normalized(overdamped), params, words) < -1e-3
    # and the trace identity alone cannot tell them apart
    a = tk.AlgebraElement.from_word(tk.Word(p=(1,), n=(2,), q=(0,), level=1))
    b = tk.AlgebraElement.from_word(tk.Word(p=(0,), n=(-2,), q=(1,), level=1))
    assert tk.kms_residual(normalized(overdamped), params, a, b) < 1e-12


def test_element_arithmetic_and_pruning():
    w = tk.Word(p=(1,), n=(0,), q=(0,), level=1)
    assert tk.AlgebraElement(1, {w: 1.0 + -1.0}).sorted_terms() == []
    assert tk.AlgebraElement(1, {w: 9e-16j}).sorted_terms() == []
    assert tk.AlgebraElement(1, {w: 2.0 - 1.0}).terms == {w: 1.0}


def test_word_str_and_parse_round_trip():
    w = tk.Word(p=(1, 0), n=(2, -3), q=(0, 4), level=2)
    text = str(w)
    back = tk.parse_word(text, k=2, d=2)
    assert back == w


def test_parse_word_rejects_malformed_text():
    with pytest.raises(ValueError, match="cannot parse word literal"):
        tk.parse_word("V[1] U[2]", k=1, d=1)
    with pytest.raises(ValueError, match="V exponents must have length k=1, got 2 and 1"):
        tk.parse_word("V[1,2] U[0] V*[1] @ 1", k=1, d=1)
    with pytest.raises(ValueError, match="V exponents must be nonnegative"):
        tk.parse_word("V[-1] U[0] V*[1] @ 1", k=1, d=1)


def test_word_validation():
    with pytest.raises(ValueError):
        tk.Word(p=(-1,), n=(0,), q=(0,), level=1)
    with pytest.raises(ValueError):
        tk.Word(p=(0,), n=(0,), q=(0,), level=0)


@pytest.mark.parametrize(
    "fields",
    [
        # tuples of Python floats miss the int-tuple fast path
        dict(p=(1.5,), n=(0,), q=(0,), level=1),
        dict(p=(1,), n=(0.9,), q=(0,), level=1),
        dict(p=(1,), n=(0,), q=(0.2,), level=1),
        dict(p=(1,), n=(0,), q=(0,), level=1.9),
        dict(p=(1,), n=(float("inf"),), q=(0,), level=1),
        dict(p=(1,), n=(0,), q=(0,), level=float("nan")),
        # numpy arrays take the converting path
        dict(p=np.array([1.5]), n=np.array([0]), q=np.array([0]), level=1),
        dict(p=np.array([1]), n=np.array([np.inf]), q=np.array([0]), level=1),
        dict(p=np.array([1]), n=np.array([0]), q=np.array([np.nan]), level=np.float64(2.5)),
    ],
)
def test_word_rejects_non_integral_entries(fields):
    with pytest.raises(ValueError):
        tk.Word(**fields)


def test_word_fast_path_keeps_every_check():
    with pytest.raises(ValueError):
        tk.Word(p=(0, -1), n=(0,), q=(0, 0), level=1)
    with pytest.raises(ValueError):
        tk.Word(p=(0,), n=(0,), q=(0, 0), level=1)
    with pytest.raises(ValueError):
        tk.Word(p=(0,), n=(0,), q=(0,), level=0)


def test_word_from_numpy_integers_equals_word_from_ints():
    ints = tk.Word(p=(1, 0), n=(2, -3), q=(0, 4), level=2)
    arrays = tk.Word(p=np.array([1, 0]), n=np.array([2, -3]), q=np.array([0, 4]),
                     level=np.int64(2))
    scalars = tk.Word(p=(np.int64(1), np.int64(0)), n=(np.int64(2), np.int64(-3)),
                      q=(np.int64(0), np.int64(4)), level=2)
    integral_floats = tk.Word(p=(1.0, 0.0), n=(2.0, -3.0), q=(0.0, 4.0), level=2.0)
    for other in (arrays, scalars, integral_floats):
        assert other == ints and hash(other) == hash(ints)
        assert {ints: 1.0}[other] == 1.0 and {other: 2.0}[ints] == 2.0
        assert all(type(v) is int for v in other.p + other.n + other.q + (other.level,))


# Word(p=(1, 0), n=(3, -2), q=(0, 2), level=2) as pickled (protocols 4 and 2)
# before words cached their hash, whose state holds the four fields only, and
# (protocol 4) while they cached it, whose state also holds "_hash".
_OLD_WORD_PICKLES = (
    b"\x80\x04\x95Y\x00\x00\x00\x00\x00\x00\x00\x8c\x19toruskms.toeplitz_algebra\x94\x8c\x04"
    b"Word\x94\x93\x94)\x81\x94}\x94(\x8c\x01p\x94K\x01K\x00\x86\x94\x8c\x01n\x94K\x03J\xfe"
    b"\xff\xff\xff\x86\x94\x8c\x01q\x94K\x00K\x02\x86\x94\x8c\x05level\x94K\x02ub.",
    b"\x80\x02ctoruskms.toeplitz_algebra\nWord\nq\x00)\x81q\x01}q\x02(X\x01\x00\x00\x00pq"
    b"\x03K\x01K\x00\x86q\x04X\x01\x00\x00\x00nq\x05K\x03J\xfe\xff\xff\xff\x86q\x06X\x01"
    b"\x00\x00\x00qq\x07K\x00K\x02\x86q\x08X\x05\x00\x00\x00levelq\tK\x02ub.",
    b"\x80\x04\x95k\x00\x00\x00\x00\x00\x00\x00\x8c\x19toruskms.toeplitz_algebra\x94\x8c\x04"
    b"Word\x94\x93\x94)\x81\x94}\x94(\x8c\x01p\x94K\x01K\x00\x86\x94\x8c\x01n\x94K\x03J\xfe"
    b"\xff\xff\xff\x86\x94\x8c\x01q\x94K\x00K\x02\x86\x94\x8c\x05level\x94K\x02\x8c\x05_hash"
    b"\x94\x8a\x08\xfb\x8f\xd1\xee\xff\x84*\xd6ub.",
)


def test_word_pickle_and_copy_keep_equality_and_hash():
    w = tk.Word(p=(1, 0), n=(3, -2), q=(0, 2), level=2)
    copies = [copy.copy(w), copy.deepcopy(w)]
    copies += [pickle.loads(pickle.dumps(w, protocol=proto)) for proto in (2, 4, 5)]
    copies += [pickle.loads(data) for data in _OLD_WORD_PICKLES]
    for other in copies:
        assert other == w and hash(other) == hash(w)
        assert {other: 1.0}[w] == 1.0
        assert vars(other) == {"p": (1, 0), "n": (3, -2), "q": (0, 2), "level": 2}


def test_multiply_rejects_theta_of_the_wrong_shape_for_any_word():
    w1 = tk.Word(p=(0,), n=(1,), q=(0,), level=1)
    w2 = tk.Word(p=(1,), n=(1, 2), q=(0,), level=1)  # d = 2 beside a d = 1 word
    mixed = tk.AlgebraElement(1, {w1: 1.0, w2: 1.0})
    plain = tk.AlgebraElement.from_word(w1)
    zero = tk.AlgebraElement(1, {})
    for theta in (_theta(0.3), np.full((1, 2), 0.3)):
        for a, b in ((mixed, plain), (plain, mixed), (mixed, zero), (zero, mixed)):
            with pytest.raises(ValueError):
                tk.multiply(a, b, theta)
    for theta in (np.full((2, 1), 0.3), np.full((1, 2), 0.3), np.full((1, 1, 1), 0.3)):
        with pytest.raises(ValueError):
            tk.multiply(plain, plain, theta)


def test_apply_dynamics_rejects_r_of_the_wrong_length():
    a = tk.AlgebraElement.from_word(tk.Word(p=(1, 0), n=(1,), q=(0, 2), level=1))
    for r in ([1.0], [1.0, 2.0, 3.0], [[1.0, 2.0]]):
        with pytest.raises(ValueError):
            tk.apply_dynamics(a, 0.5, r)
    mixed = tk.AlgebraElement(1, {tk.Word(p=(1,), n=(1,), q=(0,), level=1): 1.0,
                                  tk.Word(p=(1, 0), n=(1,), q=(0, 0), level=1): 1.0})
    with pytest.raises(ValueError):
        tk.apply_dynamics(mixed, 0.5, [1.0])


def test_apply_dynamics_overflows_to_infinity_instead_of_raising():
    # the KMS twist e^(-beta (p-q).r) of a valid but extreme level exceeds a double
    a = tk.AlgebraElement.from_word(tk.Word(p=(0,), n=(1,), q=(3,), level=1))
    with np.errstate(over="ignore"):
        twisted = tk.apply_dynamics(a, 1j * 1.0, [300.0])
    assert not np.isfinite(twisted.terms[tk.Word(p=(0,), n=(1,), q=(3,), level=1)])


def test_overflowing_twist_keeps_its_values_and_warns_nothing():
    # the numpy fallback of an overflowing exponential must neither leak a
    # RuntimeWarning nor change a value; reprs frozen from the commit that
    # let numpy warn (NaN != NaN, so values are compared by repr)
    word = lambda p, q: tk.Word(p=(p,), n=(1,), q=(q,), level=1)
    a = tk.AlgebraElement(1, {word(0, 3): 1.0, word(0, 2): 2 - 1j, word(1, 0): 0.5j,
                              word(2, 2): 3.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        twisted = tk.apply_dynamics(a, 1j * 1.0, [300.0])
    assert {str(w): repr(c) for w, c in twisted.terms.items()} == {
        "V[0] U[1] V*[3] @ 1": "(inf+nanj)",
        "V[0] U[1] V*[2] @ 1": "(7.546040601859879e+260-3.7730203009299397e+260j)",
        "V[2] U[1] V*[2] @ 1": "(3+0j)",
    }


def test_nan_coefficient_is_kept_not_pruned():
    # a NaN phase is not a coefficient below the pruning tolerance
    a = tk.AlgebraElement.from_word(tk.Word(p=(0,), n=(1,), q=(1,), level=1))
    b = tk.AlgebraElement.from_word(tk.Word(p=(2,), n=(0,), q=(0,), level=1))
    product = tk.multiply(a, b, [[float("nan")]])
    assert len(product.terms) == 1
    assert all(np.isnan(c) for c in product.terms.values())
    reverse = tk.multiply(b, a, [[float("nan")]])
    assert np.isnan(product.sup_coefficient_distance(reverse))
    assert np.isnan(reverse.sup_coefficient_distance(product))


def test_overflow_to_nan_coefficient_is_kept_and_measured_as_nan():
    # cmath.exp overflows inside apply_dynamics and leaves errno set; the NaN
    # coefficient it yields must not reach CPython's complex abs, which reads
    # that errno and raised OverflowError
    a = tk.AlgebraElement.from_word(tk.Word(p=(0,), n=(1,), q=(3,), level=1))
    twisted = tk.apply_dynamics(a, 0.3 + 1j, [300.0])
    assert list(twisted.terms) == list(a.terms)
    assert all(np.isnan(c) for c in twisted.terms.values())
    assert np.isnan(twisted.sup_coefficient_distance(a))
    assert np.isnan(a.sup_coefficient_distance(twisted))


@pytest.mark.parametrize("entry", [2**62, 2**70, -(2**62), -(2**70)])
def test_exponents_at_2_62_or_beyond_raise_value_error(entry):
    # the engine works in int64, so no word holds an entry that a sum could wrap
    fields = [dict(p=(0,), n=(entry,), q=(0,))]
    if entry > 0:
        fields += [dict(p=(entry,), n=(0,), q=(0,)), dict(p=(0,), n=(0,), q=(entry,))]
    for kind in (tuple, np.array):  # the int-tuple path and the converting path
        for f in fields:
            with pytest.raises(ValueError, match="2\\*\\*62"):
                tk.Word(**{key: kind(v) for key, v in f.items()}, level=1)


def test_exponents_just_below_2_62_construct():
    top = 2**62 - 1
    w = tk.Word(p=(top,), n=(-top, top), q=(top,), level=1)
    assert (w.p, w.n, w.q) == ((top,), (-top, top), (top,))
    assert tk.Word(p=np.array([top]), n=np.array([-top, top]), q=np.array([top]), level=1) == w


def test_a_product_that_reaches_2_62_raises_and_never_wraps():
    # each factor is a valid word; the product's p, n or q would reach 2**62
    top = 2**62 - 1
    pairs = [
        ((top, 0, 0), (1, 0, 0)),  # V_top V_1 = V_(2**62)
        ((0, 1 - 2**62, 0), (0, -1, 0)),  # U_(1-2**62) U_(-1) = U_(-2**62)
        ((0, 0, 1), (0, 0, top)),  # V*_1 V*_top = V*_(2**62)
    ]
    for pair in pairs:
        x, y = (tk.AlgebraElement.from_word(tk.Word((p,), (n,), (q,), 1)) for p, n, q in pair)
        with pytest.raises(ValueError, match="2\\*\\*62"):
            tk.multiply(x, y, np.zeros((1, 1)))
