"""Subinvariance transforms as exact moment multipliers.

Fix a rotation block theta (k x d, entries >= 0), weights r in (0, infinity)^k
and an inverse temperature beta > 0.  The j-th weighted translation acts on a
measure by translating along the j-th row of theta; since the characters
exp(2*pi*i x.n) diagonalize every translation, each transform in this module
acts on moments by multiplication with an explicit function of

    t_j(n) = (theta n)_j ,

and is therefore exact at every index.  The four transforms and their
multipliers at index n are

    nu_from_mu     : prod_j (beta r_j - 2 pi i t_j)^(-1)
                     (Laplace transform of the translation flow over [0,oo)^k)
    mu_from_nu     : prod_j (beta r_j - 2 pi i t_j)          (its inverse)
    nu_from_kappa  : prod_j (1 - e^(-beta r_j) e^(2 pi i t_j))^(-1)
                     (geometric resolvent of the unit translation steps)
    kappa_from_nu  : prod_j (1 - e^(-beta r_j) e^(2 pi i t_j))  (its inverse)

The defect measures quantify how far a measure is from translation
invariance: the finite defect removes a meet-zero family F of integer steps,
the continuous defect removes fractional steps s in [0, infinity)^k.  Their
multipliers vanish nowhere for positive measures that arise from the
transforms above, which is the computational content of subinvariance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .torus_measure import (
    AtomicMeasure,
    MultipliedMeasure,
    TorusMeasure,
    UniformMeasure,
    positivity_test,
)

__all__ = [
    "MeetNotZero",
    "NegativeS",
    "NegativeInput",
    "NotSubinvariant",
    "InvalidBlock",
    "BlockParams",
    "nu_from_mu",
    "mu_from_nu",
    "nu_from_kappa",
    "kappa_from_nu",
    "defect_measure_finite",
    "defect_measure_cts",
    "numeric_limit_mu",
    "check_subinvariance",
]

TWO_PI_I = 2j * np.pi

SUBINV_DRAWS = 10
SUBINV_SEED = 0
SUBINV_RADIUS = 3


class MeetNotZero(Exception):
    """The finite defect family F has two members with a common positive entry."""


class NegativeS(Exception):
    """A continuous defect parameter s has a negative entry."""


class NegativeInput(Exception):
    """nu_from_mu was given a measure that fails the positivity certificate."""


class NotSubinvariant(Exception):
    """mu_from_nu was given a measure whose sampled defects fail positivity."""


class InvalidBlock(ValueError):
    """BlockParams was given a shape mismatch or a theta, r or beta outside its domain."""


@dataclass(frozen=True)
class BlockParams:
    """Rotation block theta (k x d, >= 0), weights r (> 0), temperature beta (> 0).

    Any other input, NaN and infinity included, raises InvalidBlock.
    """

    theta: np.ndarray
    r: np.ndarray
    beta: float

    def __post_init__(self):
        theta = np.atleast_2d(np.asarray(self.theta, dtype=float))
        r = np.atleast_1d(np.asarray(self.r, dtype=float))
        beta = float(self.beta)
        if theta.shape[0] != r.shape[0]:
            raise InvalidBlock("theta must have one row per entry of r")
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(r)) and np.isfinite(beta)):
            raise InvalidBlock("theta, r and beta must be finite")
        if np.any(theta < 0):
            raise InvalidBlock("theta entries must be nonnegative")
        if np.any(r <= 0) or not beta > 0:
            raise InvalidBlock("r entries and beta must be positive")
        theta.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def at_level(cls, scenario, m: int) -> "BlockParams":
        """The block of level m of a scenario (1-based)."""
        lvl = scenario.level(m)
        try:
            return cls(theta=lvl.theta, r=lvl.r, beta=scenario.beta)
        except InvalidBlock as exc:
            raise InvalidBlock(f"level {m}: {exc}") from None

    @property
    def k(self) -> int:
        return self.theta.shape[0]

    @property
    def d(self) -> int:
        return self.theta.shape[1]

    def theta_dot(self, n) -> np.ndarray:
        """The k-vector t(n) with t_j = (theta n)_j; for a (B, d) batch, the (B, k) rows t(n_b)."""
        return np.asarray(n, dtype=float) @ self.theta.T

    def mass_factor(self) -> float:
        """prod_j beta r_j, the mass ratio between mu and nu_from_mu(mu)."""
        return float(np.prod(self.beta * self.r))

    def partition_value(self) -> float:
        """y_beta = sum over p in N^k of e^(-beta p.r) = prod_j (1-e^(-beta r_j))^(-1)."""
        return float(np.prod(1.0 / (1.0 - np.exp(-self.beta * self.r))))


def _laplace_factors(params: BlockParams, N) -> np.ndarray:
    return params.beta * params.r - TWO_PI_I * params.theta_dot(N)


def nu_from_mu(mu: TorusMeasure, params: BlockParams, check: bool = True) -> MultipliedMeasure:
    """Laplace-weighted translation average of a positive measure mu.

    The result integrates f against e^(-beta w.r) f(x + theta^T w) over
    w in [0, infinity)^k; on moments this is the exact multiplier
    prod_j (beta r_j - 2 pi i (theta n)_j)^(-1).  Its mass is
    ||mu|| * prod_j (beta r_j)^(-1).

    With check=True (default) mu must pass the positivity certificate;
    NegativeInput is raised otherwise.
    """
    _check_dims(mu, params)
    if check:
        _require_nonnegative(mu)
    return MultipliedMeasure(
        mu,
        lambda N, p=params: np.prod(1.0 / _laplace_factors(p, N), axis=1),
        tag="laplace-average(theta,r,beta)",
    )


def mu_from_nu(nu: TorusMeasure, params: BlockParams, check: bool = True) -> MultipliedMeasure:
    """Inverse of nu_from_mu: multiply moments by prod_j (beta r_j - 2 pi i (theta n)_j).

    The input should be subinvariant for the block; with check=True a sampled
    continuous-defect certificate is run first (NotSubinvariant on failure).
    Pass check=False to skip it, e.g. inside verified round trips.
    """
    _check_dims(nu, params)
    if check:
        ok, failures = check_subinvariance(nu, params)
        if not ok:
            raise NotSubinvariant("; ".join(failures[:3]))
    return MultipliedMeasure(
        nu,
        lambda N, p=params: np.prod(_laplace_factors(p, N), axis=1),
        tag="laplace-average-inverse(theta,r,beta)",
    )


def _geometric_factors(params: BlockParams, N) -> np.ndarray:
    return 1.0 - np.exp(-params.beta * params.r + TWO_PI_I * params.theta_dot(N))


def nu_from_kappa(kappa: TorusMeasure, params: BlockParams) -> MultipliedMeasure:
    """Geometric resolvent sum over integer translation steps p in N^k.

    Applies sum_p e^(-beta p.r) (translation by theta^T p) to kappa; on
    moments the exact multiplier prod_j (1 - e^(-beta r_j) e^(2 pi i
    (theta n)_j))^(-1).  The result has mass 1 exactly when
    ||kappa|| = 1 / y_beta.
    """
    _check_dims(kappa, params)
    return MultipliedMeasure(
        kappa,
        lambda N, p=params: np.prod(1.0 / _geometric_factors(p, N), axis=1),
        tag="geometric-resolvent(theta,r,beta)",
    )


def kappa_from_nu(nu: TorusMeasure, params: BlockParams) -> MultipliedMeasure:
    """Inverse of nu_from_kappa: the full unit-step defect multiplier."""
    _check_dims(nu, params)
    return MultipliedMeasure(
        nu,
        lambda N, p=params: np.prod(_geometric_factors(p, N), axis=1),
        tag="geometric-resolvent-inverse(theta,r,beta)",
    )


def defect_measure_finite(
    nu: TorusMeasure, F: Iterable, params: BlockParams
) -> MultipliedMeasure:
    """Defect of nu with respect to a meet-zero family F of integer steps.

    Each p in F removes the factor (1 - e^(-beta p.r) R_{theta^T p}) from nu;
    the family must be pairwise meet-zero (min(p, q) = 0 entrywise for p != q),
    which makes the product equal its inclusion-exclusion sum over subsets of
    F.  F = {} leaves nu unchanged.
    """
    _check_dims(nu, params)
    fam: List[np.ndarray] = []
    for p in F:
        arr = np.atleast_1d(np.asarray(p, dtype=np.int64))
        if arr.shape != (params.k,) or np.any(arr < 0):
            raise ValueError(f"defect steps must lie in N^{params.k}, got {arr.tolist()}")
        fam.append(arr)
    fam.sort(key=lambda a: tuple(a))
    for a, b in itertools.combinations(fam, 2):
        if np.any(np.minimum(a, b) > 0):
            raise MeetNotZero(f"steps {a.tolist()} and {b.tolist()} have nonzero meet")

    def multiplier(N, fam=tuple(fam), p=params):
        t = p.theta_dot(N)
        product = np.ones(len(N), dtype=complex)
        for step in fam:
            product *= 1.0 - np.exp(-p.beta * float(step @ p.r) + TWO_PI_I * (t @ step))
        return product

    return MultipliedMeasure(nu, multiplier, tag=f"finite-defect(F={[a.tolist() for a in fam]})")


def defect_measure_cts(
    nu: TorusMeasure,
    s,
    params: BlockParams,
    axes: Optional[Sequence[int]] = None,
) -> MultipliedMeasure:
    """Defect of nu with respect to fractional steps s in [0, infinity)^k.

    Removes, for each axis j (or each j in ``axes`` when given), the factor
    (1 - e^(-beta s_j r_j) R_{s_j theta_j^T}); the moment multiplier is

        prod_j (1 - e^(-beta s_j r_j) e^(2 pi i s_j (theta n)_j)).

    s_j = 0 makes the j-th factor vanish, so s = 0 yields the zero measure.
    Negative entries raise NegativeS.
    """
    _check_dims(nu, params)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (params.k,):
        raise ValueError(f"s must be a vector of length {params.k}")
    if np.any(s < 0):
        raise NegativeS(f"s must be entrywise nonnegative, got {s.tolist()}")
    if axes is None:
        axes_arr = np.arange(params.k)
    else:
        axes_arr = np.asarray(sorted(set(int(a) for a in axes)), dtype=np.int64)
        if len(axes_arr) and (axes_arr[0] < 0 or axes_arr[-1] >= params.k):
            raise ValueError("axes must be a subset of range(k)")
    s = s.copy()
    s.setflags(write=False)

    def multiplier(N, s=s, axes_arr=axes_arr, p=params):
        t = p.theta_dot(N)
        factors = 1.0 - np.exp(-p.beta * s * p.r + TWO_PI_I * s * t)
        return np.prod(factors[:, axes_arr], axis=1)

    tag = f"cts-defect(s={s.tolist()}" + (")" if axes is None else f", axes={axes_arr.tolist()})")
    return MultipliedMeasure(nu, multiplier, tag=tag)


def numeric_limit_mu(
    nu: TorusMeasure, params: BlockParams, n, s_schedule: Sequence[float]
) -> np.ndarray:
    """Recover a moment of mu_from_nu(nu) as a limit of scaled diagonal defects.

    For each s in the schedule the value is

        moment(defect_measure_cts(nu, (s,..,s)), n) / s^k ,

    which converges to prod_j (beta r_j - 2 pi i (theta n)_j) * moment(nu, n)
    at first order in s.  The schedule must be positive and strictly
    decreasing.  For n = 0 each value is additionally checked against the
    uniform bound prod_j (beta r_j) * ||nu|| (ValueError beyond rounding),
    which positive nu approaches from below.
    """
    _check_dims(nu, params)
    schedule = np.asarray(list(s_schedule), dtype=float)
    if schedule.ndim != 1 or len(schedule) == 0:
        raise ValueError("s_schedule must be a non-empty sequence")
    if np.any(schedule <= 0) or np.any(np.diff(schedule) >= 0):
        raise ValueError("s_schedule must be positive and strictly decreasing")
    n = np.atleast_1d(np.asarray(n, dtype=np.int64))
    base_moment = nu.moment(n)
    t = params.theta_dot(n)
    values = np.empty(len(schedule), dtype=complex)
    for i, s in enumerate(schedule):
        factors = 1.0 - np.exp((-params.beta * params.r + TWO_PI_I * t) * s)
        values[i] = complex(np.prod(factors / s)) * base_moment
    if not np.any(n):
        bound = params.mass_factor() * abs(nu.total_mass())
        worst = float(np.max(np.abs(values)))
        if worst > bound * (1.0 + 1e-9) + 1e-15:
            raise ValueError(
                f"scaled defect mass {worst:.6e} exceeds the uniform bound {bound:.6e}"
            )
    return values


def check_subinvariance(nu: TorusMeasure, params: BlockParams) -> Tuple[bool, List[str]]:
    """Sampled necessary-condition certificate that nu is subinvariant.

    Draws SUBINV_DRAWS defect parameters s uniformly from [0, s_max]^k,
    s_max = 5 / (beta min_j r_j), seeded SUBINV_SEED, adds s = 1, and runs
    positivity_test on each defect and on nu itself on |n_i| <= SUBINV_RADIUS.
    Returns (ok, failure descriptions), each naming its s and eigenvalue.
    """
    _check_dims(nu, params)
    rng = np.random.default_rng(SUBINV_SEED)
    s_max = 5.0 / (params.beta * float(np.min(params.r)))
    trial_s = [np.ones(params.k), *rng.uniform(0.0, s_max, (SUBINV_DRAWS, params.k))]
    failures: List[str] = []
    verdict = positivity_test(nu, moment_radius=SUBINV_RADIUS)
    if not verdict.is_positive:
        failures.append(f"nu itself fails positivity: {verdict.describe()}")
    for s in trial_s:
        defect = defect_measure_cts(nu, s, params)
        verdict = positivity_test(defect, moment_radius=SUBINV_RADIUS)
        if not verdict.is_positive:
            failures.append(f"defect at s={np.round(s, 4).tolist()}: {verdict.describe()}")
    return (not failures), failures


def _check_dims(mu: TorusMeasure, params: BlockParams):
    if mu.d != params.d:
        raise ValueError(f"measure dimension {mu.d} does not match block dimension {params.d}")


def _require_nonnegative(mu: TorusMeasure):
    """Cheap positivity gate for nu_from_mu inputs."""
    if isinstance(mu, UniformMeasure):
        return
    if isinstance(mu, AtomicMeasure):
        if np.max(np.abs(mu.weights.imag)) <= 1e-12 and np.min(mu.weights.real) >= -1e-12:
            return
        raise NegativeInput("atomic measure has negative or complex weights")
    verdict = positivity_test(mu)
    if not verdict.is_positive:
        raise NegativeInput(verdict.describe())
