"""Finite linear combinations of spanning words V_p U_n V*_q and their calculus.

A word is a triple (p, n, q) with p, q in N^k and n in Z^d, tagged with the
level it lives at.  The defining relations are

    U_n V_p = e^(2 pi i p.theta n) V_p U_n        (rotation relation),
    V*_p V_q = V_(j-p) V*_(j-q),  j = p v q       (join relation),

where (p v q)_j = max(p_j, q_j).  They collapse any product of two words to a
single word with an explicit phase:

  (V_p U_n V*_q)(V_p' U_n' V*_q')
      = e^(2 pi i [ (j-q).theta n + (j-p').theta n' ]) V_(p+j-q) U_(n+n') V*_(q'+j-p')

with j = q v p'.  Elements are dictionaries word -> coefficient kept in this
normal form; coefficients with modulus below 1e-15 are pruned.  Words hold
tuples of Python ints and cache their hash, and the engine works on them in
plain Python: the words it builds skip the public constructor's checks,
theta is reduced mod 1 by float % once per call (the bits of np.mod), theta.n
is summed once per word, and each pair's phase is a float sum of
integer-times-float products under one cmath.exp.  These round every product
where a BLAS dot may fuse multiply-adds (and Python 3.12 and later compensate
the sum), so at k >= 2 a phase may differ from numpy's in the last bit; at
k = 1 each dot is one product.

The gauge dynamics acts diagonally, alpha_t(V_p U_n V*_q) =
e^(i t (p-q).r) V_p U_n V*_q, for real or complex t.  Given a measure nu on
the torus, the associated equilibrium functional is

    phi(V_p U_n V*_q) = [p == q] e^(-beta p.r) moment(nu, n),

and kms_residual measures |phi(ab) - phi(b alpha_{i beta}(a))|, which vanishes
identically for this functional whatever nu is.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from operator import add, mul, neg, sub
from typing import Dict, Mapping, Tuple

import numpy as np

from .subinvariance import TWO_PI_I, BlockParams
from .torus_measure import AtomicMeasure, TorusMeasure

__all__ = [
    "LevelMismatch",
    "WordParseError",
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


class LevelMismatch(Exception):
    """Two elements at different levels cannot be combined."""


class WordParseError(Exception):
    """A word literal does not match V[p] U[n] V*[q] @ m."""


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
    """Spanning word V_p U_n V*_q at a level; p, q in N^k, n in Z^d."""

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
        # the instance is frozen: its fields and cached hash are written once
        self.__dict__.update(p=p, n=n, q=q, level=level, _hash=hash((p, n, q, level)))

    @classmethod
    def _built(cls, p, n, q, level):
        """A word whose fields come from checked words: tuples of ints, p and q >= 0; no checks."""
        word = object.__new__(cls)
        word.__dict__.update(p=p, n=n, q=q, level=level, _hash=hash((p, n, q, level)))
        return word

    def __hash__(self):
        return self._hash

    def __setstate__(self, state):
        # copies and pickles (older ones hold no hash) rebuild the word through the checks
        self.__init__(state["p"], state["n"], state["q"], state["level"])

    def __str__(self):
        fmt = lambda t: ",".join(str(v) for v in t)
        return f"V[{fmt(self.p)}] U[{fmt(self.n)}] V*[{fmt(self.q)}] @ {self.level}"


class AlgebraElement:
    """Finite linear combination of words at one level, in normal form.

    Terms with |coefficient| < 1e-15 are pruned on construction, so the zero
    element has no terms; a NaN coefficient is kept, never taken for zero.
    Elements are immutable; arithmetic returns new instances.  Addition and
    scalar multiplication are provided as operators, while the word product
    lives in ``multiply`` because it needs theta.
    """

    __slots__ = ("level", "terms")

    def __init__(self, level: int, terms: Mapping[Word, complex]):
        level = int(level)
        cleaned: Dict[Word, complex] = {}
        for word, coeff in terms.items():
            if word.level != level:
                raise LevelMismatch(f"term at level {word.level} in element at level {level}")
            c = complex(coeff)
            # NaN first: CPython's abs of a NaN reads an errno a caught overflow may have set
            if c != c or not abs(c) < PRUNE_TOL:
                cleaned[word] = c
        self.level = level
        self.terms = cleaned

    @classmethod
    def from_word(cls, word: Word, coeff: complex = 1.0) -> "AlgebraElement":
        return cls(word.level, {word: coeff})

    def sorted_terms(self):
        """Terms in a deterministic order (lexicographic in (p, n, q))."""
        return sorted(self.terms.items(), key=lambda kv: (kv[0].p, kv[0].n, kv[0].q))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.level != other.level:
            raise LevelMismatch("cannot add elements at different levels")
        merged = dict(self.terms)
        for word, coeff in other.terms.items():
            merged[word] = merged.get(word, 0j) + coeff
        return AlgebraElement(self.level, merged)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "AlgebraElement":
        scalar = complex(scalar)
        return AlgebraElement(self.level, {w: scalar * c for w, c in self.terms.items()})

    __rmul__ = __mul__

    def coefficient(self, word: Word) -> complex:
        return self.terms.get(word, 0j)

    def sup_coefficient_distance(self, other: "AlgebraElement") -> float:
        """Largest |coefficient difference| over the words of both; NaN if any is NaN."""
        keys = self.terms.keys() | other.terms
        gaps = [self.terms.get(w, 0j) - other.terms.get(w, 0j) for w in keys]
        return max(map(abs, gaps), default=0.0) if all(g == g for g in gaps) else math.nan

    def __repr__(self):
        if not self.terms:
            return f"AlgebraElement(level={self.level}, 0)"
        body = " + ".join(f"({c:.6g})*{w}" for w, c in self.sorted_terms())
        return f"AlgebraElement({body})"


def _theta_dots(theta, words):
    """theta mod 1 dotted with each word's n; ValueError unless theta is k x d for all."""
    # every phase exponent pairs theta with integer vectors on both sides, so
    # shifting entries by integers never changes a coefficient; reducing mod 1
    # keeps the exponents O(1) and the rounding error off the phases
    theta = np.atleast_2d(np.asarray(theta, dtype=float))
    if theta.ndim != 2:
        raise ValueError(f"theta must be a k x d matrix, got shape {theta.shape}")
    (k, d), rows = theta.shape, [[x % 1.0 for x in row] for row in theta.tolist()]
    out = []
    for w in words:
        if len(w.p) != k or len(w.n) != d:
            raise ValueError(f"theta is {k} x {d} but {w} has k = {len(w.p)}, d = {len(w.n)}")
        out.append(tuple([sum(map(mul, row, w.n)) for row in rows]))
    return out


def multiply(a: AlgebraElement, b: AlgebraElement, theta) -> AlgebraElement:
    """Product of two elements at the same level, in normal form.

    theta is the level's k x d rotation matrix; each pair of words collapses
    to a single word via the join relation, with phase
    e^(2 pi i [(j - q).theta n + (j - p').theta n']) where j = q v p'.
    Raises ValueError unless theta is k x d for every word of a and b.
    """
    if a.level != b.level:
        raise LevelMismatch(f"levels {a.level} and {b.level} differ")
    tn = _theta_dots(theta, [*a.terms, *b.terms])
    left = [(w.p, w.n, w.q, c, t) for (w, c), t in zip(a.terms.items(), tn)]
    right = [(w.p, w.n, w.q, c, t) for (w, c), t in zip(b.terms.items(), tn[len(left):])]
    out: Dict[Word, complex] = {}
    for p1, n1, q1, c1, tn1 in left:
        for p2, n2, q2, c2, tn2 in right:
            j = tuple(map(max, q1, p2))
            up, down = tuple(map(sub, j, q1)), tuple(map(sub, j, p2))
            p, n = tuple(map(add, p1, up)), tuple(map(add, n1, n2))
            word = Word._built(p, n, tuple(map(add, q2, down)), a.level)
            phase = sum(map(mul, up, tn1)) + sum(map(mul, down, tn2))
            out[word] = out.get(word, 0j) + c1 * c2 * cmath.exp(TWO_PI_I * phase)
    return AlgebraElement(a.level, out)


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """Adjoint: (V_p U_n V*_q)* = V_q U_(-n) V*_p with conjugated coefficients."""
    out = {
        Word._built(w.q, tuple(map(neg, w.n)), w.p, w.level): c.conjugate()
        for w, c in a.terms.items()
    }
    return AlgebraElement(a.level, out)


def apply_dynamics(a: AlgebraElement, t, r) -> AlgebraElement:
    """Gauge dynamics alpha_t, scaling each word by e^(i t (p-q).r).

    t may be complex; t = i*beta yields the KMS twist e^(-beta (p-q).r).
    Raises ValueError unless r has length k for every word.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if r.ndim != 1:
        raise ValueError(f"r must be a vector, got shape {r.shape}")
    r, it = r.tolist(), 1j * complex(t)
    out = {}
    for w, c in a.terms.items():
        if len(w.p) != len(r):
            raise ValueError(f"r has length {len(r)} but {w} has k = {len(w.p)}")
        out[w] = c * _exp(it * sum(map(mul, map(sub, w.p, w.q), r)))
    return AlgebraElement(a.level, out)


def _exp(z: complex) -> complex:
    """cmath.exp, except that a too large real part overflows to infinity as in numpy, silently."""
    try:
        return cmath.exp(z)
    except OverflowError:
        with np.errstate(over="ignore"):
            return complex(np.exp(z))


def state_eval(
    nu: TorusMeasure, params: BlockParams, a: AlgebraElement, check_state: bool = True
) -> complex:
    """Evaluate the equilibrium functional of nu on an element.

    phi(V_p U_n V*_q) = [p == q] e^(-beta p.r) moment(nu, n), extended
    linearly.  A bona fide state needs nu positive with mass 1; check_state
    enforces the cheap part (mass within 1e-8 of 1, nonnegative weights when
    atomic) and can be disabled for functional identities that hold for
    arbitrary nu.  Full positivity certification is positivity_test's job.
    """
    if check_state:
        mass = nu.total_mass()
        if abs(mass - 1.0) > 1e-8:
            raise ValueError(f"state requires mass 1, got {mass:.12g}")
        if isinstance(nu, AtomicMeasure) and (
            np.max(np.abs(nu.weights.imag)) > 1e-10 or np.min(nu.weights.real) < -1e-10
        ):
            raise ValueError("state requires a nonnegative measure")
    total = 0j
    for w, c in a.terms.items():
        if w.p != w.q:
            continue
        gap = float(np.asarray(w.p, dtype=np.int64) @ params.r)
        total += c * np.exp(-params.beta * gap) * nu.moment(np.asarray(w.n, dtype=np.int64))
    return complex(total)


def kms_residual(
    nu: TorusMeasure, params: BlockParams, a: AlgebraElement, b: AlgebraElement
) -> float:
    """|phi(ab) - phi(b alpha_{i beta}(a))| for the functional of nu.

    Zero (up to rounding) for every nu, because the equilibrium functional's
    diagonal form makes the twisted trace property an algebraic identity.
    """
    phi_ab = state_eval(nu, params, multiply(a, b, params.theta), check_state=False)
    twisted = multiply(b, apply_dynamics(a, 1j * params.beta, params.r), params.theta)
    phi_ba = state_eval(nu, params, twisted, check_state=False)
    return abs(phi_ab - phi_ba)


_WORD_RE = re.compile(
    r"^\s*V\[(?P<p>[^\]]*)\]\s*U\[(?P<n>[^\]]*)\]\s*V\*\[(?P<q>[^\]]*)\]\s*@\s*(?P<m>\d+)\s*$"
)


def _parse_int_list(text: str, what: str) -> Tuple[int, ...]:
    parts = [s.strip() for s in text.split(",")] if text.strip() else []
    try:
        return tuple(int(s) for s in parts)
    except ValueError as exc:
        raise WordParseError(f"{what} must be a comma-separated integer list: {text!r}") from exc


def parse_word(text: str, k: int, d: int) -> Word:
    """Parse the literal syntax "V[p1,..,pk] U[n1,..,nd] V*[q1,..,qk] @ m"."""
    match = _WORD_RE.match(text)
    if not match:
        raise WordParseError(f"cannot parse word literal: {text!r}")
    p = _parse_int_list(match.group("p"), "p")
    n = _parse_int_list(match.group("n"), "n")
    q = _parse_int_list(match.group("q"), "q")
    if len(p) != k or len(q) != k:
        raise WordParseError(f"V exponents must have length k={k}, got {len(p)} and {len(q)}")
    if len(n) != d:
        raise WordParseError(f"U exponent must have length d={d}, got {len(n)}")
    if any(v < 0 for v in p) or any(v < 0 for v in q):
        raise WordParseError("V exponents must be nonnegative")
    return Word(p=p, n=n, q=q, level=int(match.group("m")))
