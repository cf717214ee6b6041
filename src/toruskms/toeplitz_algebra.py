"""Finite linear combinations of spanning words V_p U_n V*_q and their calculus.

A word is a triple (p, n, q) with p, q in N^k and n in Z^d, tagged with the
level it lives at; every entry is below 2**62 in modulus, so that the int64
kernels below add two entries without wrapping.  The defining relations are

    U_n V_p = e^(2 pi i p.theta n) V_p U_n        (rotation relation),
    V*_p V_q = V_(j-p) V*_(j-q),  j = p v q       (join relation),

where (p v q)_j = max(p_j, q_j).  They collapse any product of two words to a
single word with an explicit phase:

  (V_p U_n V*_q)(V_p' U_n' V*_q')
      = e^(2 pi i [ (j-q).theta n + (j-p').theta n' ]) V_(p+j-q) U_(n+n') V*_(q'+j-p')

with j = q v p'.  Elements are dictionaries word -> coefficient kept in this
normal form; coefficients of modulus below 1e-15 are pruned, NaN is kept.  The
engine holds B elements as (B, T, 2k + d) int64 words laid out [p | n | q],
(B, T) complex coefficients and a (B, T) mask of live slots; every word row
comes from one builder, _rows, which solenoid_limit and the checks share.  The
kernels form B products, adjoints or dynamics in one call and add like words
into their first live slot.  They give the bits of the per-pair Python
arithmetic they replaced by five rules: complex products as separate real
operations (numpy's complex multiply may fuse multiply-adds); moduli by
np.hypot; merge sums added left to right in slot order; dot products summed
left to right over columns, never by @ or einsum; and np.exp of the complex
exponent that cmath.exp took.

The gauge dynamics acts diagonally, alpha_t(V_p U_n V*_q) =
e^(i t (p-q).r) V_p U_n V*_q, for real or complex t.  Given a measure nu on
the torus, the associated equilibrium functional is

    phi(V_p U_n V*_q) = [p == q] e^(-beta p.r) moment(nu, n),

and kms_residual measures |phi(ab) - phi(b alpha_{i beta}(a))|, which vanishes
identically for this functional whatever nu is.  The functional is evaluated
on a batch as well: the live diagonal terms of all B elements go to one
nu.moments call and one np.exp of their weights -beta p.r (p.r by the
left-to-right dot), then each element's terms c e^(-beta p.r) moment(nu, n)
are formed by the real-operation product and added from 0 in slot order.
state_eval is the case B = 1 behind a state gate.  The weights and the sums
are element by element, but a batch of moments rounds through other BLAS
kernels than one index does, so a batched value may differ from its
one-element value in the last bits.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from itertools import islice, repeat
from typing import Dict, Mapping, Tuple

import numpy as np

from .subinvariance import TWO_PI_I, BlockParams
from .torus_measure import AtomicMeasure, TorusMeasure

__all__ = [
    "Word",
    "AlgebraElement",
    "multiply",
    "adjoint",
    "apply_dynamics",
    "state_eval",
    "kms_residual",
    "parse_word",
]

PRUNE_TOL = 1e-15


def _int_entry(v, what: str) -> int:
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)) and math.isfinite(v) and float(v).is_integer():
        return int(v)
    raise ValueError(f"{what} entries must be finite integers, got {v!r}")


def _int_tuple(values, what: str) -> Tuple[int, ...]:
    return tuple(_int_entry(v, what) for v in np.atleast_1d(np.asarray(values)).tolist())


@dataclass(frozen=True, init=False)
class Word:
    """Spanning word V_p U_n V*_q at a level; p, q in N^k, n in Z^d, entries below 2**62."""

    p: Tuple[int, ...]
    n: Tuple[int, ...]
    q: Tuple[int, ...]
    level: int

    def __init__(self, p, n, q, level):
        fast = type(level) is int and type(p) is type(n) is type(q) is tuple
        if not (fast and {*map(type, p + n + q)} <= {int}):
            p, n, q = _int_tuple(p, "p"), _int_tuple(n, "n"), _int_tuple(q, "q")
            level = _int_entry(level, "level")
        if min((0, *p, *q)) < 0:
            raise ValueError(f"p and q must be entrywise nonnegative, got {p} and {q}")
        if len(p) != len(q):
            raise ValueError("p and q must have the same length")
        if level < 1:
            raise ValueError("levels are 1-based")
        if max(map(abs, (0, *p, *n, *q))) >= 2**62:  # so that no int64 sum of two can wrap
            raise ValueError("word exponents must be below 2**62 in modulus")
        # the instance is frozen: its fields are written once
        self.__dict__.update(p=p, n=n, q=q, level=level)

    def __setstate__(self, state):
        # copies and pickles (older ones also hold a cached hash) go through the checks
        self.__init__(state["p"], state["n"], state["q"], state["level"])

    def __str__(self):
        fmt = lambda t: ",".join(str(v) for v in t)
        return f"V[{fmt(self.p)}] U[{fmt(self.n)}] V*[{fmt(self.q)}] @ {self.level}"


class AlgebraElement:
    """Finite linear combination of words at one level, in normal form.

    Terms with |coefficient| < 1e-15 are pruned on construction, so the zero
    element has no terms; a NaN coefficient is kept, never taken for zero.
    Elements are immutable: ``multiply``, ``adjoint`` and ``apply_dynamics``
    return new instances.
    """

    __slots__ = ("level", "terms")

    def __init__(self, level: int, terms: Mapping[Word, complex]):
        level = int(level)
        cleaned: Dict[Word, complex] = {}
        for word, coeff in terms.items():
            if word.level != level:
                raise ValueError(f"term at level {word.level} in element at level {level}")
            c = complex(coeff)
            # NaN first: CPython's abs of a NaN reads an errno a caught overflow may have set
            if c != c or not abs(c) < PRUNE_TOL:
                cleaned[word] = c
        self.level = level
        self.terms = cleaned

    @classmethod
    def from_word(cls, word: Word) -> "AlgebraElement":
        return cls(word.level, {word: 1.0})

    def sorted_terms(self):
        """Terms in a deterministic order (lexicographic in (p, n, q))."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0].p, kv[0].n, kv[0].q))

    def sup_coefficient_distance(self, other: "AlgebraElement") -> float:
        """Largest |coefficient difference| over the words of both, 0 if none; NaN if any is NaN."""
        if self.level != other.level:
            raise ValueError(f"levels {self.level} and {other.level} differ")
        both = _pack([self, other], None, None)
        one, two = (tuple(part[i:i + 1] for part in both) for i in (0, 1))
        return float(_gaps(one, two).max(initial=0.0))

    def __repr__(self):
        if not self.terms:
            return f"AlgebraElement(level={self.level}, 0)"
        body = " + ".join(f"({c:.6g})*{w}" for w, c in self.sorted_terms())
        return f"AlgebraElement({body})"


def _cmul(a, b):
    """The complex array a b, in separate real operations as CPython forms a complex product."""
    re, im = a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    out = np.empty(np.shape(re), complex)
    out.real, out.imag = re, im
    return out


def _dot(x, y):
    """sum_j x[..., j] y[..., j], added left to right from 0.0 as Python's sum adds."""
    return reduce(lambda total, j: total + x[..., j] * y[..., j], range(x.shape[-1]), 0.0)


def _split(w, k):
    """The p, n and q parts of words laid out [p | n | q]."""
    return w[..., :k], w[..., k:w.shape[-1] - k], w[..., w.shape[-1] - k:]


def _rows(words, k, d):
    """Words as a (B, 2k + d) int64 array laid out [p | n | q]; ValueError unless each is k x d."""
    rows = []
    for w in words:  # a loop, not any() over a generator: a one-word call costs half as much
        if len(w.p) != k or len(w.n) != d:
            raise ValueError(f"every word must have k = {k} and d = {d}")
        rows.append(w.p + w.n + w.q)
    return np.array(rows, np.int64).reshape(len(words), 2 * k + d)


def _pack(elements, k, d):
    """The batch of elements; ValueError unless every word is k x d (None: as the first word's)."""
    words = [w for e in elements for w in e.terms]
    k = len(words[0].p) if k is None and words else k or 0
    d = len(words[0].n) if d is None and words else d or 0
    counts = np.array([len(e.terms) for e in elements])
    live = np.arange(counts.max(initial=0)) < counts[:, None]
    w, c = np.zeros((*live.shape, 2 * k + d), np.int64), np.zeros(live.shape, complex)
    w[live] = _rows(words, k, d)
    c[live] = [z for e in elements for z in e.terms.values()]
    return w, c, live


def _unpack(x, level, k):
    """The elements of a batch at level, with their terms in slot order; ValueError at 2**62."""
    w, c, live = x
    parts = (map(tuple, part[live].tolist()) for part in _split(w, k))
    terms = zip(map(Word, *parts, repeat(level)), c[live].tolist())
    return [AlgebraElement(level, dict(islice(terms, n))) for n in live.sum(1).tolist()]


def _batch(p, n, q, coeffs):
    """The batch of elements sum_t coeffs[b, t] V_p[b, t] U_n[b, t] V*_q[b, t], like words added."""
    words = np.concatenate((p, n, q), -1)
    return _pruned(_merge((words, coeffs, np.ones(coeffs.shape, bool))))


@np.errstate(over="ignore", invalid="ignore")
def _merge(x):
    """Each like word's coefficients added into its first live slot, left to right in slot order."""
    w, c, live = x
    b, s = np.nonzero(live)
    order = np.lexsort((*w[b, s].T[::-1], b))  # stable: each word's slots stay in slot order
    b, s = b[order], s[order]
    rows = w[b, s]
    new = np.ones(len(b), bool)
    new[1:] = (b[1:] != b[:-1]) | (rows[1:] != rows[:-1]).any(1)
    first, sums = np.flatnonzero(new), np.zeros(new.sum(), complex)
    np.add.at(sums, np.cumsum(new) - 1, c[b, s])  # unbuffered: in index order, so slot order
    out_c, out_live = np.zeros_like(c), np.zeros_like(live)
    out_c[b[first], s[first]], out_live[b[first], s[first]] = sums, True
    return w, out_c, out_live


def _gaps(x, y):
    """|x[b] - y[b]| coefficient by coefficient over the words of both; NaN where a part is NaN."""
    _, c, live = _merge([np.concatenate(pair, 1) for pair in zip(x, (y[0], -y[1], y[2]))])
    c = c[live]
    return np.where(np.isnan(c), np.nan, np.hypot(c.real, c.imag))


def _pruned(x):
    """The batch without its terms of modulus below 1e-15; a NaN coefficient is kept."""
    w, c, live = x
    return w, c, live & (np.isnan(c) | ~(np.hypot(c.real, c.imag) < PRUNE_TOL))


def _scaled(x, z):
    """The batch with element b times the scalar z[b], pruned."""
    return _pruned((x[0], _cmul(z[:, None], x[1]), x[2]))


@np.errstate(over="ignore", invalid="ignore")
def _product(x, y, theta):
    """The products x[b] y[b] in normal form, for a k x d theta or (B, k, d) thetas theta[b]."""
    (wx, cx, lx), (wy, cy, ly), k = x, y, theta.shape[-2]
    (p1, n1, q1), (p2, n2, q2) = _split(wx[:, :, None], k), _split(wy[:, None], k)
    # theta meets integer vectors on both sides, so mod 1 moves no phase and keeps them O(1)
    theta = np.mod(theta, 1.0)[..., None, None, :, :]
    join = np.maximum(q1, p2)
    up, down = join - q1, join - p2
    phase = _dot(up, _dot(theta, n1[..., None, :])) + _dot(down, _dot(theta, n2[..., None, :]))
    coeffs = _cmul(_cmul(cx[:, :, None], cy[:, None]), np.exp(_cmul(TWO_PI_I, phase)))
    words = np.concatenate((p1 + up, n1 + n2, q2 + down), -1)
    flat = lambda a: a.reshape(*a.shape[:1], -1, *a.shape[3:])
    return _pruned(_merge((flat(words), flat(coeffs), flat(lx[:, :, None] & ly[:, None]))))


def _adjoint(x, k):
    """The adjoints: V_q U_(-n) V*_p with the conjugate coefficient, word by word."""
    p, n, q = _split(x[0], k)
    return np.concatenate((q, -n, p), -1), x[1].conj(), x[2]


@np.errstate(over="ignore", invalid="ignore")
def _dynamics(x, t, r):
    """alpha_t of each element (or of element b with t[b], r[b]): words times e^(i t (p-q).r)."""
    p, _, q = _split(x[0], r.shape[-1])
    twist = np.exp(_cmul(_cmul(1j, np.asarray(t)[..., None]), _dot(p - q, r[..., None, :])))
    return _pruned((x[0], _cmul(x[1], twist), x[2]))


def multiply(a: AlgebraElement, b: AlgebraElement, theta) -> AlgebraElement:
    """Product of two elements at the same level, in normal form.

    theta is the level's k x d rotation matrix; each pair of words collapses
    to a single word via the join relation, with phase
    e^(2 pi i [(j - q).theta n + (j - p').theta n']) where j = q v p'.
    Raises ValueError unless theta is k x d for every word of a and b, and
    when a product's word has an entry of 2**62 or more in modulus.
    """
    if a.level != b.level:
        raise ValueError(f"levels {a.level} and {b.level} differ")
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    if theta.ndim != 2:
        raise ValueError(f"theta must be a k x d matrix, got shape {theta.shape}")
    k, d = theta.shape
    return _unpack(_product(_pack([a], k, d), _pack([b], k, d), theta), a.level, k)[0]


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """Adjoint: (V_p U_n V*_q)* = V_q U_(-n) V*_p with conjugated coefficients."""
    k = len(next(iter(a.terms)).p) if a.terms else 0
    return _unpack(_adjoint(_pack([a], k, None), k), a.level, k)[0]


def apply_dynamics(a: AlgebraElement, t, r) -> AlgebraElement:
    """Gauge dynamics alpha_t, scaling each word by e^(i t (p-q).r).

    t may be complex; t = i*beta yields the KMS twist e^(-beta (p-q).r).
    Raises ValueError unless r has length k for every word.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.ndim != 1:
        raise ValueError(f"r must be a vector, got shape {r.shape}")
    return _unpack(_dynamics(_pack([a], len(r), None), complex(t), r), a.level, len(r))[0]


def state_eval(nu: TorusMeasure, params: BlockParams, a: AlgebraElement) -> complex:
    """Evaluate the equilibrium state of nu on an element.

    phi(V_p U_n V*_q) = [p == q] e^(-beta p.r) moment(nu, n), extended
    linearly.  A bona fide state needs nu positive with mass 1; this gates
    the cheap part (ValueError unless the mass is within 1e-8 of 1 and, when
    nu is atomic, its weights are nonnegative).  Full positivity
    certification is positivity_test's job.  Raises ValueError unless every
    word is k x d for the block and nu.
    """
    mass = nu.total_mass()
    if abs(mass - 1.0) > 1e-8:
        raise ValueError(f"state requires mass 1, got {mass:.12g}")
    if isinstance(nu, AtomicMeasure) and (
        np.max(np.abs(nu.weights.imag)) > 1e-10 or np.min(nu.weights.real) < -1e-10
    ):
        raise ValueError("state requires a nonnegative measure")
    return complex(_state_values(nu, params, _pack([a], len(params.r), nu.d))[0])


def _state_values(nu, params, x):
    """The functional of nu on each element of a batch: state_eval without its state gate.

    The live diagonal terms go to one nu.moments call and one np.exp of their
    weights; each element's terms are then added from 0 in slot order.
    """
    w, c, live = x
    k = len(params.r)
    b, s = (live & (w[..., :k] == w[..., w.shape[-1] - k:]).all(-1)).nonzero()
    rows = w[b, s]
    weights = np.exp(-params.beta * _dot(rows[:, :k], params.r))
    terms = _cmul(c[b, s] * weights, nu.moments(rows[:, k:rows.shape[1] - k]))
    total = np.zeros(len(c), complex)
    np.add.at(total, b, terms)  # unbuffered: in index order, so slot order
    return total


def kms_residual(
    nu: TorusMeasure, params: BlockParams, a: AlgebraElement, b: AlgebraElement
) -> float:
    """|phi(ab) - phi(b alpha_{i beta}(a))| for the functional of nu.

    Zero (up to rounding) for every nu, because the equilibrium functional's
    diagonal form makes the twisted trace property an algebraic identity.
    """
    if a.level != b.level:
        raise ValueError(f"levels {a.level} and {b.level} differ")
    k, d = params.theta.shape
    return float(_kms_residuals([nu], params, _pack([a], k, d), _pack([b], k, d))[0])


def _kms_residuals(states, params, a, b):
    """kms_residual of each pair a[i], b[i] of two batches, with the state states[i % len(states)]."""
    twist = _dynamics(a, 1j * params.beta, params.r)
    ab, twisted = _product(a, b, params.theta), _product(b, twist, params.theta)
    out, step = np.empty(len(a[1])), len(states)
    for j, nu in enumerate(states):  # each state on its own slice of the pairs
        x, y = (tuple(part[j::step] for part in z) for z in (ab, twisted))
        out[j::step] = np.abs(_state_values(nu, params, x) - _state_values(nu, params, y))
    return out


_WORD_RE = re.compile(
    r"^\s*V\[(?P<p>[^\]]*)\]\s*U\[(?P<n>[^\]]*)\]\s*V\*\[(?P<q>[^\]]*)\]\s*@\s*(?P<m>\d+)\s*$"
)


def _parse_int_list(text: str, what: str) -> Tuple[int, ...]:
    parts = [s.strip() for s in text.split(",")] if text.strip() else []
    try:
        return tuple(int(s) for s in parts)
    except ValueError as exc:
        raise ValueError(f"{what} must be a comma-separated integer list: {text!r}") from exc


def parse_word(text: str, k: int, d: int) -> Word:
    """Parse the literal syntax "V[p1,..,pk] U[n1,..,nd] V*[q1,..,qk] @ m"."""
    match = _WORD_RE.match(text)
    if not match:
        raise ValueError(f"cannot parse word literal: {text!r}")
    p = _parse_int_list(match.group("p"), "p")
    n = _parse_int_list(match.group("n"), "n")
    q = _parse_int_list(match.group("q"), "q")
    if len(p) != k or len(q) != k:
        raise ValueError(f"V exponents must have length k={k}, got {len(p)} and {len(q)}")
    if len(n) != d:
        raise ValueError(f"U exponent must have length d={d}, got {len(n)}")
    if any(v < 0 for v in p) or any(v < 0 for v in q):
        raise ValueError("V exponents must be nonnegative")
    return Word(p=p, n=n, q=q, level=int(match.group("m")))
