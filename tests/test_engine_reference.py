"""The word engine against its per-pair numpy predecessor, kept here as the reference.

The reference evaluates every pair of words with numpy vectors and one
complex exponential per pair.  The engine works in plain Python on the int
tuples of its words: it reduces theta mod 1 once per call, sums theta.n once
per word, and takes each pair's phase as a float sum of integer-times-float
products under one cmath.exp.  numpy's dot products may go through BLAS,
which can fuse multiply-adds, and Python 3.12 and later compensate a float
sum, so off d = k = 1 a phase may differ in the last bits.  The comparison
there allows a tolerance fixed from the double precision unit before any run:
1e-13 times the sum of |c1| |c2| over the pairs (about 450 ulps of that
scale), and for the dynamics 1e-13 times the sum of the reference
coefficients' moduli.  At d = k = 1 every dot product has one term, so
coefficients must be equal exactly.  Exponents up to 3 make the
integer-times-theta products inexact, so a change in summation order shows
up.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toruskms as tk

TOL = 1e-13
TWO_PI_I = 2j * np.pi


def _ref_word_product(w1, c1, w2, c2, theta):
    q1 = np.asarray(w1.q, dtype=np.int64)
    p2 = np.asarray(w2.p, dtype=np.int64)
    j = np.maximum(q1, p2)
    tn1 = theta @ np.asarray(w1.n, dtype=float)
    tn2 = theta @ np.asarray(w2.n, dtype=float)
    phase = float((j - q1) @ tn1) + float((j - p2) @ tn2)
    word = tk.Word(
        p=np.asarray(w1.p, dtype=np.int64) + j - q1,
        n=np.asarray(w1.n, dtype=np.int64) + np.asarray(w2.n, dtype=np.int64),
        q=np.asarray(w2.q, dtype=np.int64) + j - p2,
        level=w1.level,
    )
    return word, c1 * c2 * complex(np.exp(TWO_PI_I * phase))


def ref_multiply(a, b, theta):
    theta = np.mod(np.atleast_2d(np.asarray(theta, dtype=float)), 1.0)
    out: Dict[tk.Word, complex] = {}
    for w1, c1 in a.terms.items():
        for w2, c2 in b.terms.items():
            word, coeff = _ref_word_product(w1, c1, w2, c2, theta)
            out[word] = out.get(word, 0j) + coeff
    return tk.AlgebraElement(a.level, out)


def ref_adjoint(a):
    out = {
        tk.Word(p=w.q, n=tuple(-v for v in w.n), q=w.p, level=w.level): np.conj(c)
        for w, c in a.terms.items()
    }
    return tk.AlgebraElement(a.level, out)


def ref_apply_dynamics(a, t, r):
    r = np.atleast_1d(np.asarray(r, dtype=float))
    t = complex(t)
    out = {}
    for w, c in a.terms.items():
        gap = float((np.asarray(w.p, dtype=np.int64) - np.asarray(w.q, dtype=np.int64)) @ r)
        out[w] = c * complex(np.exp(1j * t * gap))
    return tk.AlgebraElement(a.level, out)


def _element(rng, k, d, terms):
    # duplicate words are merged by summing their coefficients
    out: Dict[tk.Word, complex] = {}
    for re, im in rng.uniform(-2.0, 2.0, (terms, 2)):
        w = tk.Word(
            p=tuple(int(v) for v in rng.integers(0, 4, k)),
            n=tuple(int(v) for v in rng.integers(-3, 4, d)),
            q=tuple(int(v) for v in rng.integers(0, 4, k)),
            level=1,
        )
        out[w] = out.get(w, 0j) + complex(re, im)
    return tk.AlgebraElement(1, out)


def _assert_close(new, ref, scale, exact):
    assert set(new.terms) == set(ref.terms)
    for w, c in ref.terms.items():
        if exact:
            assert new.terms[w] == c, (w, new.terms[w], c)
        else:
            assert abs(new.terms[w] - c) <= TOL * scale, (w, new.terms[w], c)


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(1, 3),
    d=st.integers(1, 3),
    sizes=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    seed=st.integers(0, 2**32 - 1),
    t=st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
)
def test_engine_matches_per_pair_reference(k, d, sizes, seed, t):
    rng = np.random.default_rng(seed)
    a, b = _element(rng, k, d, sizes[0]), _element(rng, k, d, sizes[1])
    theta = rng.uniform(0.0, 7.0, (k, d))
    r = rng.uniform(0.1, 3.0, k)
    exact = d == k == 1

    pair_scale = sum(abs(c1) * abs(c2) for c1 in a.terms.values() for c2 in b.terms.values())
    _assert_close(tk.multiply(a, b, theta), ref_multiply(a, b, theta), pair_scale, exact)

    _assert_close(tk.adjoint(a), ref_adjoint(a), 0.0, exact=True)

    ref = ref_apply_dynamics(a, t, r)
    scale = sum(abs(c) for c in ref.terms.values())
    _assert_close(tk.apply_dynamics(a, t, r), ref, scale, exact)


def test_engine_rejects_mismatched_shapes():
    a = _element(np.random.default_rng(0), 2, 2, 2)
    with pytest.raises(ValueError):
        tk.multiply(a, a, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        tk.apply_dynamics(a, 0.5, [1.0])
