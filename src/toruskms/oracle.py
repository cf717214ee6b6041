"""Independent numerical oracles for the closed-form machinery.

Everything here recomputes a quantity the library produces in closed form, by
a route that shares no algebra with the closed form:

* ``laplace_quadrature`` integrates the Laplace-weighted character integral
  over a truncated box with composite Gauss-Legendre panels, checking the
  reciprocal-linear-factor multiplier of ``nu_from_mu``.  C01 integrates a
  block's index box in one batch, grouped by panel count; the row -n takes
  the exact conjugate of n's integral, since z(-n) = conj z(n).
* ``psi_oracle`` is the quadrature route to a thread's state on one word,
  weight times c_m times ``laplace_quadrature``, checking ``psi_eval``.
* ``fock_state_eval`` sums the diagonal expectation of a word over the
  truncated occupation box [0, P]^k, checking ``state_eval`` with
  ``nu_from_kappa`` inputs; the truncation error is at most the closed-form
  ``FockTruncation.tail_weight`` times the mass of kappa.
* ``truncated_inverse_moment`` applies the finite geometric series of
  weighted translations, checking that ``kappa_from_nu`` really inverts the
  resolvent sum within the complement tail weight.
* ``bhs_reconciliation`` compares, in the d = k = 1 case, the resolvent
  moment of a point mass against an independently parametrized density
  formula: a wrapped exponential density on [0, 1) whose finite integral is
  evaluated analytically.  The two routes agree identically.
* the dense Fock-matrix mode realizes words as matrices on the truncated
  occupation box tensored with L2 of an atomic measure, giving an
  operator-level check of the multiplication engine.

Oracles are for tests and cross-validation; the library itself never calls
them to produce a value.  They import data containers only, plus the route A
``nu_from_mu`` of ``bhs_reconciliation``, and compute (theta n)_j and c_m here.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul
from typing import Tuple

import numpy as np

from .solenoid_limit import SolenoidMeasureThread
from .subinvariance import BlockParams, nu_from_mu
from .toeplitz_algebra import AlgebraElement, Word
from .torus_measure import AtomicMeasure, TorusMeasure

__all__ = [
    "FockTruncation",
    "laplace_quadrature",
    "psi_oracle",
    "fock_state_eval",
    "truncated_inverse_moment",
    "geometric_tail_fraction",
    "bhs_reconciliation",
    "fock_word_matrix",
    "fock_element_matrix",
    "fock_dense_state",
]

TWO_PI = 2.0 * np.pi

# e^(-beta W_j r_j) <= TRUNC_EPS for the quadrature window W_j.
_TRUNC_EPS = 1e-13
# Phase-plus-decay budget per Gauss-Legendre panel; 16 nodes resolve it to
# well below 1e-15 relative.
_PANEL_BUDGET = 6.0
# A cap far above the ~1,100 panels of C01 and the towers (U[10**9] asks for
# ~10**11), and the most nodes one np.exp call takes unless one row has more.
_MAX_PANELS, _CHUNK_NODES = 2**16, 2**14


def _theta_n(params: BlockParams, n) -> np.ndarray:
    """The k-vector (theta n)_j from the raw theta, with no closed-form helper."""
    return np.asarray(n, dtype=float) @ params.theta.T


@lru_cache(maxsize=1)
def _leggauss():
    # on first use, so that importing the package does not load numpy.polynomial
    return np.polynomial.legendre.leggauss(16)


def _axis_integrals(z: np.ndarray, width: float, panels: int) -> list:
    """integral of e^(z w) dw over [0, width] for each z, by composite 16-node Gauss-Legendre."""
    x, w = _leggauss()
    edges = np.linspace(0.0, width, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    pts = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    sums, rows = [], max(1, _CHUNK_NODES // len(pts))
    for start in range(0, len(z), rows):  # each row summed over its own contiguous nodes
        terms = z[start : start + rows, None] * pts
        np.exp(terms, out=terms)
        terms *= weights
        sums += terms.sum(axis=1).tolist()
    return sums


def _laplace_batch(mu: TorusMeasure, params: BlockParams, N: np.ndarray) -> list:
    """laplace_quadrature at each row of the (B, d) index array N, as a list."""
    rows, leaders, source, flip = N.tolist(), {}, [], []
    for n in rows:
        key, neg = tuple(n), tuple([-v for v in n])
        flip.append(key not in leaders and neg in leaders)
        source.append(leaders[neg] if flip[-1] else leaders.setdefault(key, len(leaders)))
    decay = params.beta * params.r
    widths = np.log(1.0 / _TRUNC_EPS) / decay
    z = np.empty((len(leaders), params.k), dtype=complex)
    z.real, z.imag = -decay, TWO_PI * np.array([_theta_n(params, key) for key in leaders])
    speed = np.hypot(decay, np.abs(z.imag))
    groups = {}
    for i, count in enumerate(np.ceil(widths * speed / _PANEL_BUDGET).max(axis=1).tolist()):
        groups.setdefault(max(4.0, count), []).append(i)
    if max(groups) > _MAX_PANELS:
        raise ValueError(f"quadrature needs {max(groups):.0f} panels, above the cap {_MAX_PANELS}")
    axes = {}
    for count, group in groups.items():
        zg = z.take(group, axis=0)
        columns = [_axis_integrals(zg[:, j], widths[j], int(count)) for j in range(params.k)]
        axes.update(zip(group, zip(*columns)))
    return [  # the axes multiplied in turn from 1, as the per-index loop did
        reduce(mul, [a.conjugate() if conj else a for a in axes[i]], 1.0 + 0j) * mu.moment(n)
        for n, i, conj in zip(rows, source, flip)
    ]


def laplace_quadrature(mu: TorusMeasure, params: BlockParams, n) -> complex:
    """Quadrature value of the Laplace-averaged moment of mu at index n.

    Computes prod_j integral over [0, W_j] of e^((-beta r_j + 2 pi i
    (theta n)_j) w) dw, times moment(mu, n); the integrand factorizes across
    axes, so the tensor rule reduces to the product of one-dimensional
    composite rules.  The window W_j = ln(1/_TRUNC_EPS) / (beta r_j) leaves a
    decay tail of 1e-13, and every axis shares max(4, ceil(max_j W_j
    hypot(beta r_j, 2 pi |(theta n)_j|) / _PANEL_BUDGET)) panels of 16 nodes,
    which resolve the oscillation; above _MAX_PANELS it raises ValueError
    before any node is built.  Agrees with the closed form of nu_from_mu to
    the truncation tail (about 1e-12) plus quadrature error.

    This is the one-row case of the batch that C01 calls per block: rows with
    one panel count share each axis's nodes, np.exp call and row-wise sum, and
    a row whose negation came earlier takes the conjugates of that row's axis
    integrals, bit for bit, as exp, sums and products commute with conjugation.
    """
    return _laplace_batch(mu, params, np.asarray(n)[None])[0]


def psi_oracle(thread: SolenoidMeasureThread, w: Word) -> complex:
    """The thread's state on one word by quadrature, to check psi_eval against.

    [p == q] e^(-beta p.r^m) c_m times laplace_quadrature of mu_m at n, where
    c_m = prod_j beta r^m_j is the level's mass constant, taken from the raw
    fields; the closed-form factors of psi_eval are never formed.
    """
    scenario, m = thread.scenario, w.level
    params = BlockParams.at_level(scenario, m)
    c_m = float(np.prod(scenario.beta * params.r))
    if w.p != w.q:
        return 0j
    weight = float(np.exp(-scenario.beta * np.asarray(w.p, dtype=float) @ params.r))
    return weight * c_m * laplace_quadrature(thread.measure(m), params, np.asarray(w.n))


@dataclass(frozen=True)
class FockTruncation:
    """Occupation box [0, box]^k for the truncated diagonal sum."""

    box: int

    def __post_init__(self):
        if int(self.box) < 0:
            raise ValueError("box bound must be >= 0")
        object.__setattr__(self, "box", int(self.box))

    @classmethod
    def for_params(cls, params: BlockParams) -> "FockTruncation":
        """Smallest box whose closed-form tail weight is <= 1e-10.

        tail_weight never grows with the box, even in floating point, so
        doubling to a box that fits and bisecting below it finds that box.
        """
        fits = lambda box: cls(box).tail_weight(params) <= 1e-10
        top = 1
        while not fits(top):
            if top >= 200000:
                raise ValueError("tail target unreachable at sane box sizes")
            top = min(2 * top, 200000)
        return cls(bisect.bisect_left(range(top), True, key=fits))

    def tail_weight(self, params: BlockParams) -> float:
        """sum of e^(-beta p.r) over p outside [0, box]^k, in closed form.

        Geometric series: full sum prod_j (1-t_j)^(-1) minus box sum
        prod_j (1-t_j^(box+1)) / (1-t_j), with t_j = e^(-beta r_j).
        """
        t = np.exp(-params.beta * params.r)
        full = float(np.prod(1.0 / (1.0 - t)))
        inside = float(np.prod((1.0 - t ** (self.box + 1)) / (1.0 - t)))
        return full - inside


def _truncated_geometric_sum(params: BlockParams, n: np.ndarray, box: int) -> complex:
    """sum over b in [0, box]^k of e^(-beta b.r) e^(2 pi i b.(theta n)).

    The summand factorizes across axes, so this is the product over j of the
    per-axis partial sums, each summed term by term.
    """
    t = _theta_n(params, n)
    b = np.arange(box + 1, dtype=float)
    value = 1.0 + 0j
    for j in range(params.k):
        terms = np.exp((-params.beta * params.r[j] + 2j * np.pi * t[j]) * b)
        value *= complex(np.sum(terms))
    return value


def fock_state_eval(
    kappa: TorusMeasure, params: BlockParams, a: AlgebraElement, trunc: FockTruncation
) -> complex:
    """Truncated diagonal expectation of an element against kappa.

    For a word with p = q the diagonal sum is

        sum over b in [0, P]^k of e^(-beta (b+p).r) e^(2 pi i b.(theta n))
            * moment(kappa, n),

    summed numerically (the summand factorizes across axes, so the box sum is
    computed as a product of per-axis partial sums, term by term).  Words with
    p != q contribute exactly 0.  On one word with coefficient 1 the truncation
    error is at most trunc.tail_weight(params) times ||kappa||.
    """
    total = 0j
    for w, c in a.terms.items():
        if w.p != w.q:
            continue
        n = np.asarray(w.n, dtype=np.int64)
        value = _truncated_geometric_sum(params, n, trunc.box)
        gap = float(np.asarray(w.p, dtype=np.int64) @ params.r)
        total += c * np.exp(-params.beta * gap) * value * kappa.moment(n)
    return complex(total)


def truncated_inverse_moment(
    kappa: TorusMeasure, params: BlockParams, n, box: int
) -> complex:
    """Moment at n of the finite resolvent series applied to kappa.

    sum over p in [0, box]^k of e^(-beta p.r) e^(2 pi i p.(theta n)) *
    moment(kappa, n), summed numerically per axis.  Approaches the
    nu_from_kappa closed form as box grows; the remainder, relative to the
    recovered measure's mass, is geometric_tail_fraction.
    """
    n = np.asarray(n, dtype=np.int64)
    return _truncated_geometric_sum(params, n, int(box)) * kappa.moment(n)


def geometric_tail_fraction(params: BlockParams, box: int) -> float:
    """Exact complement weight of [0, box]^k relative to the full resolvent sum.

    Reapplying the truncated series after kappa_from_nu recovers each moment
    of a positive nu to within this fraction of ||nu||:

        1 - prod_j (1 - e^(-beta (box+1) r_j)).

    At k = 1 this sharpens the single-axis tail e^(-beta (box+1) r) /
    (1 - e^(-beta r)) by the factor (1 - e^(-beta r)).
    """
    t_pow = np.exp(-params.beta * (int(box) + 1) * params.r)
    return float(1.0 - np.prod(1.0 - t_pow))


def bhs_reconciliation(
    y: float, theta: float, r: float, beta: float, n: int
) -> Tuple[complex, complex]:
    """Two routes to the same d = k = 1 resolvent moment; returns (A, B).

    A is the package route: the moment at n of nu_from_mu applied to the
    point mass at y.  B parametrizes the same measure as a density: the
    Laplace average of a point mass wraps to the density proportional to
    e^(-beta r (v - y)/theta) on one fundamental domain, normalized by
    theta (1 - e^(-beta r / theta)); its n-th Fourier coefficient is the
    analytic finite integral

        (1 - e^(-c + 2 pi i n)) / (c - 2 pi i n),   c = beta r / theta,

    times the normalization and the phase e^(2 pi i n y).  A = B exactly;
    the routes share no code.
    """
    if not theta > 0:
        raise ValueError("density route needs theta > 0")
    params = BlockParams(theta=np.array([[theta]]), r=np.array([r]), beta=beta)
    nu = nu_from_mu(AtomicMeasure.point_mass([y]), params, check=False)
    a_value = nu.moment(np.array([n]))

    c = beta * r / theta
    finite_integral = (1.0 - np.exp(-c + 2j * np.pi * n)) / (c - 2j * np.pi * n)
    b_value = (
        np.exp(2j * np.pi * n * y) / (theta * (1.0 - np.exp(-c))) * finite_integral
    )
    return complex(a_value), complex(b_value)


def _occupation_indices(k: int, box: int) -> np.ndarray:
    return np.asarray(list(np.ndindex((box + 1,) * k)), dtype=np.int64)


def fock_word_matrix(
    w: Word, params: BlockParams, kappa: AtomicMeasure, box: int
) -> np.ndarray:
    """Dense matrix of a word on the truncated occupation box tensor L2(kappa).

    The occupation factor carries the truncated shifts and the diagonal
    rotation phases e^(2 pi i b.(theta n)); the measure factor acts by the
    multiplication operator with eigenvalues e^(2 pi i x_a.n) at the atoms
    (multiplication operators are exact on atomic L2, no quadrature error).
    Row index = occupation multi-index (C order) times atom index.
    """
    if kappa.d != params.d:
        raise ValueError("kappa dimension does not match the block")
    k = params.k
    n = np.asarray(w.n, dtype=np.int64)
    shift_up = np.eye(1)
    shift_dn = np.eye(1)
    for j in range(k):  # the p_j-th power of the unilateral shift, truncated to [0, box]
        shift_up = np.kron(shift_up, np.eye(box + 1, k=-w.p[j]))
        shift_dn = np.kron(shift_dn, np.eye(box + 1, k=-w.q[j]))
    occ = _occupation_indices(k, box)
    t = _theta_n(params, n)
    rot = np.exp(2j * np.pi * (occ.astype(float) @ t))
    occupation_part = shift_up @ (rot[:, None] * shift_dn.T)
    atom_part = np.diag(np.exp(2j * np.pi * (kappa.points @ n)))
    return np.kron(occupation_part, atom_part)


def fock_element_matrix(
    a: AlgebraElement, params: BlockParams, kappa: AtomicMeasure, box: int
) -> np.ndarray:
    size = (box + 1) ** params.k * len(kappa.weights)
    total = np.zeros((size, size), dtype=complex)
    for w, c in a.terms.items():
        total += c * fock_word_matrix(w, params, kappa, box)
    return total


def fock_dense_state(
    a: AlgebraElement, params: BlockParams, kappa: AtomicMeasure, box: int
) -> complex:
    """Diagonal expectation of the dense matrix against the occupation weights.

    sum over b in the box of e^(-beta b.r) <M (delta_b x 1), delta_b x 1> with
    the kappa-weighted inner product on the atomic L2 factor.  Agrees with
    ``fock_state_eval`` up to edge effects of the truncated shifts (the
    formula's sum runs to the box edge even where shifted vectors fall out),
    so comparisons should leave headroom of the word's V-degree.
    """
    mat = fock_element_matrix(a, params, kappa, box)
    occ = _occupation_indices(params.k, box)
    cells, n_atoms = len(occ), len(kappa.weights)
    # blocks[b] is the diagonal block of M on delta_b x L2(kappa)
    blocks = np.einsum("bibj->bij", mat.reshape(cells, n_atoms, cells, n_atoms))
    inner = blocks.sum(axis=2) @ kappa.weights
    return complex(np.exp(-params.beta * (occ @ params.r)) @ inner)
