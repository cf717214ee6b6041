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
tuples of Python ints and the normal form is computed on them directly: the
exponents by tuple arithmetic, theta.n once per word, and the phases of one
product call as stacked numpy dot products (rounded as single ones would be)
through a single exponential of an array.

The gauge dynamics acts diagonally, alpha_t(V_p U_n V*_q) =
e^(i t (p-q).r) V_p U_n V*_q, for real or complex t.  Given a measure nu on
the torus, the associated equilibrium functional is

    phi(V_p U_n V*_q) = [p == q] e^(-beta p.r) moment(nu, n),

and kms_residual measures |phi(ab) - phi(b alpha_{i beta}(a))|, which vanishes
identically for this functional whatever nu is.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from operator import add, neg, sub
from typing import Dict, Mapping, Tuple

import numpy as np

from .subinvariance import BlockParams
from .torus_measure import AtomicMeasure, TorusMeasure

__all__ = [
    "LevelMismatch",
    "WordParseError",
    "Word",
    "AlgebraElement",
    "join",
    "multiply",
    "adjoint",
    "apply_dynamics",
    "state_eval",
    "kms_residual",
    "parse_word",
]

PRUNE_TOL = 1e-15

TWO_PI_I = 2j * np.pi


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


@dataclass(frozen=True)
class Word:
    """Spanning word V_p U_n V*_q at a level; p, q in N^k, n in Z^d."""

    p: Tuple[int, ...]
    n: Tuple[int, ...]
    q: Tuple[int, ...]
    level: int

    def __post_init__(self):
        p, n, q, level = self.p, self.n, self.q, self.level
        # the engine builds words from tuples of Python ints: those need no conversion
        fast = type(level) is int and type(p) is type(n) is type(q) is tuple
        if not (fast and all(type(v) is int for v in p + n + q)):
            p, n, q = _int_tuple(p, "p"), _int_tuple(n, "n"), _int_tuple(q, "q")
            level = _int_entry(level, "level")
            for name, value in zip(("p", "n", "q", "level"), (p, n, q, level)):
                object.__setattr__(self, name, value)
        if min(p + q, default=0) < 0:
            raise ValueError(f"p and q must be entrywise nonnegative, got {p} and {q}")
        if len(p) != len(q):
            raise ValueError("p and q must have the same length")
        if level < 1:
            raise ValueError("levels are 1-based")

    @classmethod
    def identity(cls, k: int, d: int, level: int = 1) -> "Word":
        return cls(p=(0,) * k, n=(0,) * d, q=(0,) * k, level=level)

    def __str__(self):
        fmt = lambda t: ",".join(str(v) for v in t)
        return f"V[{fmt(self.p)}] U[{fmt(self.n)}] V*[{fmt(self.q)}] @ {self.level}"


class AlgebraElement:
    """Finite linear combination of words at one level, in normal form.

    Terms with |coefficient| < 1e-15 are pruned on construction, so the zero
    element has no terms.  Elements are immutable; arithmetic returns new
    instances.  Addition and scalar multiplication are provided as operators,
    while the word product lives in ``multiply`` because it needs theta.
    """

    __slots__ = ("level", "terms")

    def __init__(self, level: int, terms: Mapping[Word, complex]):
        level = int(level)
        cleaned: Dict[Word, complex] = {}
        for word, coeff in terms.items():
            if word.level != level:
                raise LevelMismatch(f"term at level {word.level} in element at level {level}")
            c = complex(coeff)
            if abs(c) >= PRUNE_TOL:
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
        keys = set(self.terms) | set(other.terms)
        if not keys:
            return 0.0
        return max(abs(self.terms.get(w, 0j) - other.terms.get(w, 0j)) for w in keys)

    def __repr__(self):
        if not self.terms:
            return f"AlgebraElement(level={self.level}, 0)"
        body = " + ".join(f"({c:.6g})*{w}" for w, c in self.sorted_terms())
        return f"AlgebraElement({body})"


def join(p, q) -> Tuple[int, ...]:
    """Componentwise maximum p v q of two points of N^k."""
    p, q = _int_tuple(p, "p"), _int_tuple(q, "q")
    if len(p) != len(q):
        raise ValueError("join needs vectors of equal length")
    if min(p + q, default=0) < 0:
        raise ValueError("join is defined on N^k")
    return tuple(map(max, p, q))


def _row_dots(rows, floats: np.ndarray) -> np.ndarray:
    """u @ v for each row u of rows and v of floats (or v = floats when 1-d).

    One stacked matmul, which takes the same BLAS dot per row as ``u @ v``
    does alone, so every phase rounds as a product of two single words does.
    """
    return np.matmul(np.array(rows, dtype=float)[:, None, :], floats[..., None])[:, 0, 0]


def multiply(a: AlgebraElement, b: AlgebraElement, theta) -> AlgebraElement:
    """Product of two elements at the same level, in normal form.

    theta is the level's k x d rotation matrix; each pair of words collapses
    to a single word via the join relation, with phase
    e^(2 pi i [(j - q).theta n + (j - p').theta n']) where j = q v p'.
    """
    if a.level != b.level:
        raise LevelMismatch(f"levels {a.level} and {b.level} differ")
    if not (a.terms and b.terms):
        return AlgebraElement(a.level, {})
    # every phase exponent pairs theta with integer vectors on both sides, so
    # shifting entries by integers never changes a coefficient; reducing mod 1
    # here keeps the exponents O(1) and the rounding error off the phases
    theta = np.mod(np.atleast_2d(np.asarray(theta, dtype=float)), 1.0)
    # theta.n of a's words, then b's, one stacked matmul that rounds as theta @ n
    ns = np.array([w.n for w in a.terms] + [w.n for w in b.terms], dtype=float)
    tn = np.matmul(theta, ns[..., None])[..., 0]
    products, shifts, tn_rows = [], [], []
    for ia, (w1, c1) in enumerate(a.terms.items()):
        for ib, (w2, c2) in enumerate(b.terms.items(), start=len(a.terms)):
            j = tuple(map(max, w1.q, w2.p))
            up, down = tuple(map(sub, j, w1.q)), tuple(map(sub, j, w2.p))
            p, n = tuple(map(add, w1.p, up)), tuple(map(add, w1.n, w2.n))
            products.append((Word(p, n, tuple(map(add, w2.q, down)), a.level), c1 * c2))
            shifts += (up, down)
            tn_rows += (ia, ib)
    dots = _row_dots(shifts, tn.take(tn_rows, axis=0))
    phases = dots[0::2] + dots[1::2]
    out: Dict[Word, complex] = {}
    for (word, coeff), phase in zip(products, np.exp(TWO_PI_I * phases).tolist()):
        out[word] = out.get(word, 0j) + coeff * phase
    return AlgebraElement(a.level, out)


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """Adjoint: (V_p U_n V*_q)* = V_q U_(-n) V*_p with conjugated coefficients."""
    out = {
        Word(p=w.q, n=tuple(map(neg, w.n)), q=w.p, level=w.level): c.conjugate()
        for w, c in a.terms.items()
    }
    return AlgebraElement(a.level, out)


def apply_dynamics(a: AlgebraElement, t, r) -> AlgebraElement:
    """Gauge dynamics alpha_t, scaling each word by e^(i t (p-q).r).

    t may be complex; t = i*beta yields the KMS twist e^(-beta (p-q).r).
    """
    if not a.terms:
        return AlgebraElement(a.level, {})
    r = np.atleast_1d(np.asarray(r, dtype=float))
    gaps = _row_dots([tuple(map(sub, w.p, w.q)) for w in a.terms], r)
    factors = np.exp(1j * complex(t) * gaps).tolist()
    return AlgebraElement(a.level, {w: c * f for (w, c), f in zip(a.terms.items(), factors)})


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
