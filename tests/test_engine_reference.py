"""The array word engine against the plain-Python engine it replaced, kept here as the reference.

The reference multiplies each pair of terms in Python: it reduces theta mod 1
with float ``%``, sums theta.n once per word and each pair's phase as a
float sum of integer-times-float products, takes one ``cmath.exp`` per pair,
and merges like words into a dict.  The array engine does the same
operations on whole batches, in the same order: complex products as
separate real operations, left-to-right sums, ``np.exp`` of the same complex
exponent and ``np.hypot`` for the pruning modulus.  So no tolerance is
allowed: every word, its position in the element's terms and every bit of
its coefficient must match.  Coefficients are compared through the hex form
of their parts, so that a NaN compares equal to a NaN.

The reference's float sums are explicit left-to-right folds from 0.0, not
the builtin ``sum``, which compensates float sums from Python 3.12 on.
Each case draws its exponents either in 0..2 and -1..1, so that products
repeat words and like terms merge, or in 0..3 and -3..3, where an integer
times a float is inexact, so that a change in summation order or a fused
multiply-add changes the bits.
"""

from __future__ import annotations

import cmath
import math
from functools import reduce
from operator import add, mul, neg, sub
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toruskms as tk
from toruskms import toeplitz_algebra as ta
from toruskms.subinvariance import TWO_PI_I
from toruskms.toeplitz_algebra import AlgebraElement, Word


def _total(values):
    """The float sum of values, added left to right from 0.0."""
    return reduce(add, values, 0.0)


def _theta_dots(theta, words):
    """theta mod 1 dotted with each word's n; ValueError unless theta is k x d for all."""
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    if theta.ndim != 2:
        raise ValueError(f"theta must be a k x d matrix, got shape {theta.shape}")
    (k, d), rows = theta.shape, [[x % 1.0 for x in row] for row in theta.tolist()]
    out = []
    for w in words:
        if len(w.p) != k or len(w.n) != d:
            raise ValueError(f"theta is {k} x {d} but {w} has k = {len(w.p)}, d = {len(w.n)}")
        out.append(tuple([_total(map(mul, row, w.n)) for row in rows]))
    return out


def ref_multiply(a: AlgebraElement, b: AlgebraElement, theta) -> AlgebraElement:
    tn = _theta_dots(theta, [*a.terms, *b.terms])
    left = [(w.p, w.n, w.q, c, t) for (w, c), t in zip(a.terms.items(), tn)]
    right = [(w.p, w.n, w.q, c, t) for (w, c), t in zip(b.terms.items(), tn[len(left):])]
    out: Dict[Word, complex] = {}
    for p1, n1, q1, c1, tn1 in left:
        for p2, n2, q2, c2, tn2 in right:
            j = tuple(map(max, q1, p2))
            up, down = tuple(map(sub, j, q1)), tuple(map(sub, j, p2))
            p, n = tuple(map(add, p1, up)), tuple(map(add, n1, n2))
            word = Word(p, n, tuple(map(add, q2, down)), a.level)
            phase = _total(map(mul, up, tn1)) + _total(map(mul, down, tn2))
            out[word] = out.get(word, 0j) + c1 * c2 * cmath.exp(TWO_PI_I * phase)
    return AlgebraElement(a.level, out)


def ref_adjoint(a: AlgebraElement) -> AlgebraElement:
    out = {
        Word(w.q, tuple(map(neg, w.n)), w.p, w.level): c.conjugate()
        for w, c in a.terms.items()
    }
    return AlgebraElement(a.level, out)


def ref_apply_dynamics(a: AlgebraElement, t, r) -> AlgebraElement:
    r = np.atleast_1d(np.asarray(r, dtype=float))
    r, it = r.tolist(), 1j * complex(t)
    out = {}
    for w, c in a.terms.items():
        if len(w.p) != len(r):
            raise ValueError(f"r has length {len(r)} but {w} has k = {len(w.p)}")
        out[w] = c * _exp(it * _total(map(mul, map(sub, w.p, w.q), r)))
    return AlgebraElement(a.level, out)


def _exp(z: complex) -> complex:
    """cmath.exp, except that a too large real part overflows to infinity as in numpy, silently."""
    try:
        return cmath.exp(z)
    except OverflowError:
        with np.errstate(over="ignore"):
            return complex(np.exp(z))


def ref_distance(a: AlgebraElement, b: AlgebraElement) -> float:
    """sup_coefficient_distance as a dict walk: the largest |a - b| over words; NaN if any is."""
    keys = a.terms.keys() | b.terms
    gaps = [a.terms.get(w, 0j) - b.terms.get(w, 0j) for w in keys]
    return max(map(abs, gaps), default=0.0) if all(g == g for g in gaps) else math.nan


def _bits(element):
    """The terms in order, each coefficient as the hex of its parts."""
    return [(w, c.real.hex(), c.imag.hex()) for w, c in element.terms.items()]


_COEFF = st.complex_numbers(min_magnitude=1e-3, max_magnitude=4.0, allow_nan=False,
                            allow_infinity=False)
_DIMS = st.tuples(st.integers(1, 3), st.integers(1, 3))


def _elements(k, d, p_max, n_max):
    """Elements of 0-4 terms with p and q in 0..p_max and n in -n_max..n_max."""
    pq, n = st.integers(0, p_max), st.integers(-n_max, n_max)
    word = st.builds(
        lambda p, n, q: Word(p, n, q, 1), st.tuples(*[pq] * k), st.tuples(*[n] * d),
        st.tuples(*[pq] * k),
    )
    return st.dictionaries(word, _COEFF, max_size=4).map(lambda terms: AlgebraElement(1, terms))


@st.composite
def _cases(draw, k, d):
    """a, b, theta, r and t at k and d; a may hold a NaN and a pair of terms that cancel in ab."""
    ranges = draw(st.sampled_from([(2, 1), (3, 3)]))  # small ones repeat words, larger ones round
    a, b = draw(_elements(k, d, *ranges)), draw(_elements(k, d, *ranges))
    terms = dict(a.terms)
    if b.terms and draw(st.booleans()):
        # z V_0 U_0 V*_0 - z V_s U_0 V*_s with s = p of b's first word: both
        # terms times that word give one word with opposite coefficients,
        # whose sum prunes to 0
        z, s = draw(_COEFF), next(iter(b.terms)).p
        terms.update({Word((0,) * k, (0,) * d, (0,) * k, 1): z, Word(s, (0,) * d, s, 1): -z})
    if terms and draw(st.booleans()):
        word = draw(st.sampled_from(sorted(terms, key=str)))
        terms[word] = draw(st.sampled_from([complex("nan"), complex(1.0, float("nan"))]))
    theta = draw(st.lists(st.floats(0.0, 7.0), min_size=k * d, max_size=k * d))
    r = draw(st.lists(st.floats(0.1, 3.0), min_size=k, max_size=k))
    t = draw(st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False))
    return AlgebraElement(1, terms), b, np.reshape(theta, (k, d)), np.asarray(r), t


@settings(max_examples=300, deadline=None)
@given(case=_DIMS.flatmap(lambda dims: _cases(*dims)))
def test_engine_matches_per_pair_reference(case):
    a, b, theta, r, t = case
    assert _bits(tk.multiply(a, b, theta)) == _bits(ref_multiply(a, b, theta))
    assert _bits(tk.multiply(b, a, theta)) == _bits(ref_multiply(b, a, theta))
    assert _bits(tk.adjoint(a)) == _bits(ref_adjoint(a))
    assert _bits(tk.apply_dynamics(a, t, r)) == _bits(ref_apply_dynamics(a, t, r))


# elements of up to 4 of 12 words, with coefficients from a pool that holds
# NaNs and an infinity: the distance meets words of both, of one only, equal
# coefficients, and a NaN or inf - inf on either side
_WORDS = [Word((p,), (n,), (q,), 1) for p in (0, 1) for n in (-1, 0, 1) for q in (0, 1)]
_SMALL = st.lists(st.tuples(
    st.sampled_from(_WORDS),
    st.sampled_from([0.5, -2.0, 1j, 1.25 + 3j, -1.5 - 0.75j, 3e-3, complex("nan"),
                     complex(1.0, float("nan")), complex("inf"), complex("inf+nanj")]),
), max_size=4).map(lambda terms: AlgebraElement(1, dict(terms)))


@settings(max_examples=200, deadline=None)
@given(a=_SMALL, b=_SMALL)
def test_distance_matches_the_dict_reference(a, b):
    # the distance is the merge kernel's, on B = 1; a and b may hold NaN or no term
    for x, y in ((a, b), (b, a)):
        assert x.sup_coefficient_distance(y).hex() == ref_distance(x, y).hex()


@settings(max_examples=100, deadline=None)
@given(cases=_DIMS.flatmap(lambda dims: st.lists(_cases(*dims), min_size=1, max_size=4)))
def test_a_batch_equals_its_one_element_calls(cases):
    a, b, theta, r, t = (list(field) for field in zip(*cases))
    k, d = theta[0].shape
    x, y = ta._pack(a, k, d), ta._pack(b, k, d)
    products = ta._unpack(ta._product(x, y, np.array(theta)), 1, k)
    adjoints = ta._unpack(ta._adjoint(x, k), 1, k)
    flowed = ta._unpack(ta._dynamics(x, np.array(t, dtype=complex), np.array(r)), 1, k)
    for i in range(len(cases)):
        assert _bits(products[i]) == _bits(tk.multiply(a[i], b[i], theta[i]))
        assert _bits(adjoints[i]) == _bits(tk.adjoint(a[i]))
        assert _bits(flowed[i]) == _bits(tk.apply_dynamics(a[i], t[i], r[i]))


def test_engine_rejects_mismatched_shapes():
    a = AlgebraElement(1, {Word((1, 0), (2, -1), (0, 3), 1): 1.0,
                           Word((0, 2), (1, 1), (1, 0), 1): 2j})
    with pytest.raises(ValueError):
        tk.multiply(a, a, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        tk.apply_dynamics(a, 0.5, [1.0])
