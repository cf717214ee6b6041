"""Finite measures on the d-torus represented through Fourier moment oracles.

Every computation in this package touches a measure only through its moments

    moment(mu, n) = integral of exp(2*pi*i * x.n) dmu(x),   n in Z^d,

so measures are moment oracles rather than densities or samples, evaluated in
batches of indices (``TorusMeasure.moments``).  That choice keeps the two
structural operations exact at every index: a closed-form transform multiplies
moment n by an explicit function of n, and pushing forward under the transpose
of an integer matrix E re-indexes moments as n -> E n.

Positivity of a (possibly signed) real moment oracle is certified by one
necessary condition: the multilevel Toeplitz moment matrix
T[a, b] = moment(n_a - n_b), n_a in [0, N]^d, must be positive semidefinite.
A negative eigenvalue refutes positivity with its eigenvector as witness;
passing is a necessary-condition certificate, not a proof.  The Fejer density
of order N adds no test: at x it is (N+1)^(-d) v* T v with |v|^2 = (N+1)^d,
v_a = exp(2*pi*i * n_a.x), a Rayleigh quotient of T, never below its least
eigenvalue.  That is exact for a Hermitian table; one that passes the
Hermitian gate with defect delta moves the quotient by at most
(N+1)^d * delta / 2.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "TorusMeasure",
    "AtomicMeasure",
    "MultipliedMeasure",
    "MappedIndexMeasure",
    "UniformMeasure",
    "PositivityVerdict",
    "moment_table",
    "pushforward_dual",
    "positivity_test",
    "reduce_mod_1",
    "atomic_from_json",
    "write_moment_csv",
]

# Fejer grid points per axis by dimension; no grid is evaluated, profilers read it.
_DEFAULT_GRID = {1: 256, 2: 64, 3: 32}

# positivity_test refutes positivity at a moment-matrix eigenvalue below -POSITIVITY_TOL.
POSITIVITY_TOL = 1e-8


def reduce_mod_1(x):
    """Reduce a point of R^d to [0, 1)^d; an infinity becomes NaN silently, callers reject it."""
    with np.errstate(invalid="ignore"):
        return np.mod(np.asarray(x, dtype=float), 1.0)


def _index_vector(n, d):
    """Coerce n to a length-d integer vector, rejecting non-finite or non-integral input."""
    arr = np.atleast_1d(np.asarray(n))
    if arr.shape != (d,):
        raise ValueError(f"moment index must have length {d}, got shape {arr.shape}")
    if arr.dtype.kind in "iu":
        return arr.astype(np.int64, copy=False)
    real = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(real)):
        raise ValueError(f"moment index must be finite, got {arr!r}")
    out = np.rint(real).astype(np.int64)
    if np.max(np.abs(real - out)) > 1e-9:
        raise ValueError(f"moment index must be integral, got {arr!r}")
    return out


def index_box(d: int, radius: int) -> np.ndarray:
    """Every n in Z^d with |n_i| <= radius as a (B, d) int64 array, in np.ndindex order."""
    return np.indices((2 * radius + 1,) * d).reshape(d, -1).T - radius


class TorusMeasure:
    """Abstract finite complex measure on S^d, exposed as a moment oracle.

    Subclasses implement ``moments(N)``, which maps a (B, d) int64 array of
    indices, one per row, to the (B,) complex array of their moments.
    ``moment(n)`` validates one index and evaluates it as a one-row batch.
    Instances are immutable after construction and safe to share across threads.
    """

    d: int

    def moments(self, N) -> np.ndarray:
        raise NotImplementedError

    def moment(self, n) -> complex:
        return complex(self.moments(_index_vector(n, self.d)[None])[0])

    def total_mass(self) -> complex:
        """Moment at n = 0, the measure of the whole torus."""
        return self.moment(np.zeros(self.d, dtype=np.int64))


class AtomicMeasure(TorusMeasure):
    """Finitely many weighted points; the default concrete input format.

    Points are stored reduced mod 1.  Weights may be complex internally;
    probability measures have real nonnegative weights summing to 1.  A NaN
    or infinite point or weight raises ValueError.
    """

    def __init__(self, points, weights):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        weights = np.atleast_1d(np.asarray(weights, dtype=complex))
        if points.ndim != 2 or weights.ndim != 1 or points.shape[0] != weights.shape[0]:
            raise ValueError("need one weight per atom")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(weights))):
            raise ValueError("atom points and weights must be finite")
        self.points = reduce_mod_1(points)
        self.points.setflags(write=False)
        self.weights = weights
        self.weights.setflags(write=False)
        self.d = points.shape[1]

    @classmethod
    def point_mass(cls, x) -> "AtomicMeasure":
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return cls(x.reshape(1, -1), np.array([1.0]))

    def moments(self, N) -> np.ndarray:
        return np.exp(2j * np.pi * (N @ self.points.T)) @ self.weights

    # Bound in each class body so that profilers can wrap ``moment`` per class.
    moment = TorusMeasure.moment


class UniformMeasure(TorusMeasure):
    """Normalized Lebesgue measure on S^d; moment(n) = [n == 0] at any index."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.d = int(d)

    def moments(self, N) -> np.ndarray:
        return (~np.any(N, axis=1)).astype(complex)

    moment = TorusMeasure.moment


class MultipliedMeasure(TorusMeasure):
    """A base measure composed with a closed-form moment multiplier.

    moments(N) = multiplier(N) * moments(base, N).  The multiplier is called
    once per batch with the (B, d) int64 index array and returns the (B,)
    array of its values, or a scalar that broadcasts (a constant factor).
    The tag names the closed form for reports and debugging.
    """

    def __init__(self, base: TorusMeasure, multiplier: Callable, tag: str):
        self.base = base
        self.multiplier = multiplier
        self.tag = str(tag)
        self.d = base.d

    def moments(self, N) -> np.ndarray:
        # out= rejects a multiplier that does not broadcast to the (B,) batch
        out = np.empty(len(N), dtype=complex)
        return np.multiply(self.multiplier(N), self.base.moments(N), out=out)

    moment = TorusMeasure.moment

    def __repr__(self):
        return f"MultipliedMeasure({self.base!r}, tag={self.tag!r})"


class MappedIndexMeasure(TorusMeasure):
    """Moment oracle of a dual pushforward: moment(n) = moment(base, M n)."""

    def __init__(self, base: TorusMeasure, matrix):
        matrix = np.asarray(matrix, dtype=np.int64)
        if matrix.shape != (base.d, base.d):
            raise ValueError("index map must be a square integer matrix of the base dimension")
        self.base = base
        self.matrix = matrix
        self.matrix.setflags(write=False)
        self.d = base.d

    def moments(self, N) -> np.ndarray:
        return self.base.moments(N @ self.matrix.T)

    moment = TorusMeasure.moment


def moment_table(mu: TorusMeasure, radius: int) -> np.ndarray:
    """Dense moment table on the box |n_i| <= radius, shape (2*radius+1,)^d."""
    radius = int(radius)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    return mu.moments(index_box(mu.d, radius)).reshape((2 * radius + 1,) * mu.d)


def pushforward_dual(mu: TorusMeasure, E) -> TorusMeasure:
    """Pushforward of mu under the dual endomorphism x -> E^T x mod 1.

    On moments this is the exact re-indexing moment(n) -> moment(mu, E n).
    Atomic measures map their atoms directly, the uniform measure is invariant,
    and any other representation returns a lazy index-mapped oracle.
    """
    E = np.asarray(E)
    Ei = np.rint(E).astype(np.int64)
    if E.shape != (mu.d, mu.d) or np.max(np.abs(np.asarray(E, dtype=float) - Ei)) > 1e-9:
        raise ValueError("E must be a square integer matrix of the measure's dimension")
    if round(abs(np.linalg.det(Ei.astype(float)))) == 0:
        raise ValueError("pushforward matrix must have nonzero determinant")
    if isinstance(mu, AtomicMeasure):
        return AtomicMeasure(mu.points @ Ei, mu.weights)
    if isinstance(mu, UniformMeasure):
        # E n = 0 iff n = 0 for invertible E, so Lebesgue is invariant.
        return mu
    return MappedIndexMeasure(mu, Ei)


@dataclass(frozen=True)
class PositivityVerdict:
    """Outcome of the moment-matrix positivity certificate.

    kind is "positive" or "not_positive".  min_eigenvalue is the smallest
    eigenvalue of the moment matrix on [0, moment_radius]^d, the only quantity
    the certificate computes.  On failure eigen_witness is an eigenvector of
    that matrix for its smallest eigenvalue; on success it is None.
    """

    kind: str
    min_eigenvalue: float
    eigen_witness: Optional[np.ndarray]
    moment_radius: int

    @property
    def is_positive(self) -> bool:
        return self.kind == "positive"

    def describe(self) -> str:
        if self.is_positive:
            return f"positive (min moment-matrix eigenvalue {self.min_eigenvalue:.3e})"
        return f"not positive: moment-matrix eigenvalue {self.min_eigenvalue:.3e}"


def _moment_matrix(table: np.ndarray, radius: int) -> np.ndarray:
    """Multilevel Toeplitz matrix T[a, b] = moment(n_a - n_b), n in [0,N]^d."""
    grid = np.indices((radius + 1,) * table.ndim).reshape(table.ndim, -1)
    return table[tuple(grid[:, :, None] - grid[:, None, :] + radius)]


def positivity_test(lam: TorusMeasure, *, moment_radius: int = 5) -> PositivityVerdict:
    """Necessary-condition positivity certificate for a real measure.

    Parameters
    ----------
    lam : TorusMeasure
        Real measure (Hermitian moments); a symmetry defect above 1e-9 times
        the largest moment, or a NaN moment, raises ValueError.
    moment_radius : int
        Moment box radius N; the check consumes moments with |n_i| <= N.

    Returns
    -------
    PositivityVerdict
        "positive" when the least eigenvalue of the moment matrix on [0, N]^d
        is at least -POSITIVITY_TOL (1e-8), otherwise "not_positive" with the
        eigenvector of its smallest eigenvalue.  Eigenvectors are computed
        for a refutation only.  The Fejer density of order N is a Rayleigh
        quotient of that matrix (module docstring).
    """
    d = lam.d
    N = int(moment_radius)
    table = moment_table(lam, N)
    scale = max(1.0, float(np.max(np.abs(table))))
    sym_defect = np.max(np.abs(table - np.conj(table[(slice(None, None, -1),) * d])))
    if not sym_defect <= 1e-9 * scale:
        raise ValueError(
            f"moments are not Hermitian-symmetric (defect {sym_defect:.3e}); "
            "positivity is defined for real measures"
        )
    matrix = _moment_matrix(table, N)
    min_eig = float(np.linalg.eigvalsh(matrix)[0])
    ok = min_eig >= -POSITIVITY_TOL
    return PositivityVerdict(
        kind="positive" if ok else "not_positive",
        min_eigenvalue=min_eig,
        # only a refutation needs its eigenvector, so only then the full decomposition
        eigen_witness=None if ok else np.linalg.eigh(matrix)[1][:, 0],
        moment_radius=N,
    )


def atomic_from_json(obj: dict) -> AtomicMeasure:
    """Load an atomic measure from the parsed {"atoms": [{"x": [...], "w": ...}, ...]}."""
    if not isinstance(obj, dict) or "atoms" not in obj:
        raise ValueError('atomic measure JSON must be an object with an "atoms" list')
    atoms = obj["atoms"]
    if not isinstance(atoms, list) or not atoms:
        raise ValueError("atoms must be a non-empty list")
    points = []
    weights = []
    for i, entry in enumerate(atoms):
        try:
            points.append([float(v) for v in entry["x"]])
            weights.append(float(entry["w"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f'atom {i} needs an "x" list and a "w" number, got {entry!r}') from exc
    return AtomicMeasure(np.asarray(points), np.asarray(weights))


def write_moment_csv(mu: TorusMeasure, radius: int) -> str:
    """The moment box |n_i| <= radius as CSV text, one row n_1,..,n_d,Re,Im per index."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"n_{i + 1}" for i in range(mu.d)] + ["Re", "Im"])
    N = index_box(mu.d, radius)
    for n, value in zip(N, mu.moments(N)):
        writer.writerow([*(int(v) for v in n), f"{value.real:.17g}", f"{value.imag:.17g}"])
    return buf.getvalue()
