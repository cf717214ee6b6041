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

The geometric pair and both defects are one step factor

    1 - e^(-beta s.r) e^(2 pi i s.(theta n))

multiplied over the rows s of a step matrix: the k x k identity for the
geometric pair (kappa_from_nu is the defect at the unit steps), the sorted
family F for the finite defect and diag(s) for the continuous one.

One routine, _certify, certifies subinvariance for both of its callers,
check_subinvariance (the gate of mu_from_nu) and the report's check C04: it
runs positivity_test on nu, then on its continuous defect at each given s,
all on one moment box, and returns the verdicts in that order.  A NaN or an
infinity in s or in a numeric_limit_mu schedule is a ValueError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .scenario import ConstraintViolation
from .torus_measure import (
    AtomicMeasure,
    MultipliedMeasure,
    TorusMeasure,
    UniformMeasure,
    _index_vector,
    positivity_test,
)

__all__ = [
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


@dataclass(frozen=True)
class BlockParams:
    """Rotation block theta (k x d, >= 0), weights r (> 0), temperature beta (> 0).

    Any other input, NaN and infinity included, raises ConstraintViolation.
    """

    theta: np.ndarray
    r: np.ndarray
    beta: float

    def __post_init__(self):
        theta = np.atleast_2d(np.asarray(self.theta, dtype=float))
        r = np.atleast_1d(np.asarray(self.r, dtype=float))
        beta = float(self.beta)
        if theta.shape[0] != r.shape[0]:
            raise ConstraintViolation("theta must have one row per entry of r")
        if not (np.all(np.isfinite(theta)) and np.all(np.isfinite(r)) and np.isfinite(beta)):
            raise ConstraintViolation("theta, r and beta must be finite")
        if np.any(theta < 0):
            raise ConstraintViolation("theta entries must be nonnegative")
        if np.any(r <= 0) or not beta > 0:
            raise ConstraintViolation("r entries and beta must be positive")
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
        except ConstraintViolation as exc:
            raise ConstraintViolation(f"level {m}: {exc}") from None

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


def _factor_product(factors, invert: bool, params: BlockParams, N) -> np.ndarray:
    """prod_j of the factors (or their reciprocals) at each index; a partial of it pickles."""
    values = factors(params, N)
    return np.multiply.reduce(1.0 / values if invert else values, axis=1)  # np.prod without its wrapper


def nu_from_mu(mu: TorusMeasure, params: BlockParams, check: bool = True) -> MultipliedMeasure:
    """Laplace-weighted translation average of a positive measure mu.

    The result integrates f against e^(-beta w.r) f(x + theta^T w) over
    w in [0, infinity)^k; on moments this is the exact multiplier
    prod_j (beta r_j - 2 pi i (theta n)_j)^(-1).  Its mass is
    ||mu|| * prod_j (beta r_j)^(-1).

    With check=True (default) mu must pass the positivity certificate;
    ValueError is raised otherwise.
    """
    _check_dims(mu, params)
    if check:
        _require_nonnegative(mu)
    return MultipliedMeasure(
        mu,
        partial(_factor_product, _laplace_factors, True, params),
        tag="laplace-average(theta,r,beta)",
    )


def mu_from_nu(nu: TorusMeasure, params: BlockParams, check: bool = True) -> MultipliedMeasure:
    """Inverse of nu_from_mu: multiply moments by prod_j (beta r_j - 2 pi i (theta n)_j).

    The input should be subinvariant for the block; with check=True a sampled
    continuous-defect certificate is run first (ValueError on failure).
    Pass check=False to skip it, e.g. inside verified round trips.
    """
    _check_dims(nu, params)
    if check:
        ok, failures = check_subinvariance(nu, params)
        if not ok:
            raise ValueError("; ".join(failures[:3]))
    return MultipliedMeasure(
        nu,
        partial(_factor_product, _laplace_factors, False, params),
        tag="laplace-average-inverse(theta,r,beta)",
    )


def _step_factors(steps: np.ndarray, params: BlockParams, N) -> np.ndarray:
    """(B, S) factors 1 - e^(-beta s.r) e^(2 pi i s.(theta n)), a column per row s of steps."""
    exponents = (-params.beta * steps) @ params.r + params.theta_dot(N) @ (TWO_PI_I * steps).T
    return 1.0 - np.exp(exponents)


def _step_measure(base: TorusMeasure, steps, invert: bool, params: BlockParams, tag: str):
    """base times prod over the rows s of steps of the step factor (or its reciprocal)."""
    steps = np.array(steps, dtype=float).reshape(-1, params.k)
    steps.setflags(write=False)
    multiplier = partial(_factor_product, partial(_step_factors, steps), invert, params)
    return MultipliedMeasure(base, multiplier, tag=tag)


def nu_from_kappa(kappa: TorusMeasure, params: BlockParams) -> MultipliedMeasure:
    """Geometric resolvent sum over integer translation steps p in N^k.

    Applies sum_p e^(-beta p.r) (translation by theta^T p) to kappa; on
    moments the exact multiplier prod_j (1 - e^(-beta r_j) e^(2 pi i
    (theta n)_j))^(-1).  The result has mass 1 exactly when
    ||kappa|| = 1 / y_beta.
    """
    _check_dims(kappa, params)
    return _step_measure(
        kappa, np.eye(params.k), True, params, "geometric-resolvent(theta,r,beta)"
    )


def kappa_from_nu(nu: TorusMeasure, params: BlockParams) -> MultipliedMeasure:
    """Inverse of nu_from_kappa: the defect of nu at the k unit steps."""
    _check_dims(nu, params)
    return _step_measure(
        nu, np.eye(params.k), False, params, "geometric-resolvent-inverse(theta,r,beta)"
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
            raise ValueError(f"steps {a.tolist()} and {b.tolist()} have nonzero meet")
    tag = f"finite-defect(F={[a.tolist() for a in fam]})"
    return _step_measure(nu, fam, False, params, tag)


def defect_measure_cts(nu: TorusMeasure, s, params: BlockParams) -> MultipliedMeasure:
    """Defect of nu with respect to fractional steps s in [0, infinity)^k.

    Removes, for each axis j, the factor (1 - e^(-beta s_j r_j) R_{s_j theta_j^T});
    the moment multiplier is

        prod_j (1 - e^(-beta s_j r_j) e^(2 pi i s_j (theta n)_j)),

    the step factor over the rows of diag(s).  s_j = 0 makes the j-th factor
    vanish, so s = 0 yields the zero measure.  Negative entries raise ValueError.
    """
    _check_dims(nu, params)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if s.shape != (params.k,):
        raise ValueError(f"s must be a vector of length {params.k}")
    if np.any(s < 0):
        raise ValueError(f"s must be entrywise nonnegative, got {s.tolist()}")
    if not np.all(np.isfinite(s)):
        raise ValueError(f"s must be finite, got {s.tolist()}")
    return _step_measure(nu, np.diag(s), False, params, f"cts-defect(s={s.tolist()})")


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
    if not (np.all(np.isfinite(schedule) & (schedule > 0)) and np.all(np.diff(schedule) < 0)):
        raise ValueError("s_schedule must be positive, finite and strictly decreasing")
    n = _index_vector(n, params.d)
    values = np.array(
        [defect_measure_cts(nu, np.full(params.k, s), params).moment(n) / s**params.k
         for s in schedule]
    )
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
    s_max = 5 / (beta min_j r_j), seeded SUBINV_SEED, adds s = 1, and
    certifies nu and its defect at each s on |n_i| <= SUBINV_RADIUS with
    _certify, the routine C04 runs too.  Returns (ok, failure descriptions),
    each naming its s and eigenvalue.
    """
    _check_dims(nu, params)
    rng = np.random.default_rng(SUBINV_SEED)
    trial_s = [np.ones(params.k), *rng.uniform(0.0, _s_max(params), (SUBINV_DRAWS, params.k))]
    verdict, *verdicts = _certify(nu, trial_s, params, SUBINV_RADIUS)
    failures = [] if verdict.is_positive else [f"nu itself fails positivity: {verdict.describe()}"]
    failures += [f"defect at s={np.round(s, 4).tolist()}: {v.describe()}"
                 for s, v in zip(trial_s, verdicts) if not v.is_positive]
    return (not failures), failures


def _certify(nu: TorusMeasure, trial_s, params: BlockParams, radius: int) -> list:
    """The PositivityVerdicts on [0, radius]^d of nu, then of its continuous defect at each s."""
    defects = (defect_measure_cts(nu, s, params) for s in trial_s)
    return [positivity_test(mu, moment_radius=radius) for mu in (nu, *defects)]


def _s_max(params: BlockParams) -> float:
    """5 / (beta min_j r_j), the upper end of the sampled defect parameters s_j."""
    return 5.0 / (params.beta * float(np.min(params.r)))


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
        raise ValueError("atomic measure has negative or complex weights")
    verdict = positivity_test(mu)
    if not verdict.is_positive:
        raise ValueError(verdict.describe())
