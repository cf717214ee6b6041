"""Verification suites: named checks shared by the CLI and the acceptance tests.

Each check exercises one verification contract (closed form vs oracle, an
exact identity, a residual, or an engine fuzz) and returns report rows; a row
records the quantity, its value, the reference it was compared to, the
residual, the bound it must stay under, and pass/fail/skip.  Checks draw
their randomness from a generator seeded by (seed, check index), so a report
is a deterministic function of the configuration and a check's rows do not
depend on which other checks run; the suite runner evaluates the checks one
after another and returns rows sorted by check id.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .oracle import (
    FockTruncation,
    _laplace_batch,
    bhs_reconciliation,
    fock_element_matrix,
    fock_state_eval,
    geometric_tail_fraction,
    psi_oracle,
    truncated_inverse_moment,
)
from .scenario import Scenario
from .solenoid_limit import (
    SolenoidMeasureThread,
    _consistency_residuals,
    _normalized_average,
    _psi_values,
    normalized_nu,
)
from .subinvariance import (
    BlockParams,
    _s_max,
    defect_measure_cts,
    kappa_from_nu,
    mu_from_nu,
    nu_from_kappa,
    nu_from_mu,
    numeric_limit_mu,
)
from . import toeplitz_algebra as engine
from .toeplitz_algebra import AlgebraElement, Word, state_eval
from .torus_measure import (
    POSITIVITY_TOL,
    AtomicMeasure,
    index_box,
    positivity_test,
)

__all__ = [
    "SuiteConfig",
    "StateReport",
    "CHECKS",
    "SUITES",
    "run_checks",
    "overall_pass",
    "render_text",
    "render_json",
    "render_csv",
]

# Gates, one per error regime; no option or config field changes them.
CLOSED_FORM_TOL = 1e-12
ENGINE_TOL = 1e-10
ORACLE_TOL = 1e-6
FUZZ_TOL = 1e-12
# Engine instances C11 draws.
FUZZ_COUNT = 500
# The least value of each report option; SuiteConfig and the CLI both read it.
_FLOORS = {"samples": 1, "s_samples": 0, "moment_box": 0, "seed": 0}


@dataclass(frozen=True)
class SuiteConfig:
    """The report options and their defaults; a non-int or one below its floor is a ValueError."""

    samples: int = 100
    s_samples: int = 50
    moment_box: int = 5
    seed: int = 0

    def __post_init__(self):
        for option, low in _FLOORS.items():
            value = getattr(self, option)
            if type(value) is not int:  # not isinstance, which would take True for 1
                raise ValueError(f"{option} must be an int, got {value!r}")
            if value < low:
                raise ValueError(f"{option} must be at least {low}, got {value}")


@dataclass(frozen=True)
class StateReport:
    """One verification record: a value, its reference, and the residual."""

    check_id: str
    level: int
    quantity: str
    value: complex
    reference: complex
    residual: float
    bound: float
    status: str  # "pass" | "fail" | "skip"


def _row(
    check_id: str,
    level: int,
    quantity: str,
    value,
    reference,
    residual: float,
    bound: float,
    status: Optional[str] = None,
) -> StateReport:
    """A report row; it fails whenever a number in it is not finite."""
    if status is None:
        status = "pass" if residual <= bound else "fail"
    if not all(np.isfinite(x) for x in (complex(value), complex(reference), residual, bound)):
        status = "fail"
    return StateReport(
        check_id=check_id,
        level=int(level),
        quantity=quantity,
        value=complex(value),
        reference=complex(reference),
        residual=float(residual),
        bound=float(bound),
        status=status,
    )


def _worst(values: Iterable[float]) -> float:
    """Largest of 0.0 and values; a NaN anywhere wins, where the builtin max would drop it."""
    return float(np.max((0.0, *values)))


def _residual_row(check_id: str, level: int, quantity: str, residual: float, bound: float):
    """A row for a residual measured against 0."""
    return _row(check_id, level, quantity, residual, 0.0, residual, bound)


# ---------------------------------------------------------------------------
# Random ingredient helpers.  beta and r are kept away from 0 so quadrature
# windows and occupation boxes stay modest; theta entries are O(1).


def _random_block(rng, d: int, k: int) -> BlockParams:
    return BlockParams(
        theta=rng.uniform(0.0, 1.5, size=(k, d)),
        r=rng.uniform(0.5, 2.0, size=k),
        beta=float(rng.uniform(0.5, 2.0)),
    )


def _random_atomic(rng, d: int, mass: float = 1.0) -> AtomicMeasure:
    points = rng.random((3, d))
    weights = rng.dirichlet(np.ones(3)) * mass
    return AtomicMeasure(points, weights)


def _random_setup(rng):
    """(d, k, block, mu, nu_mu) for random d, k in 1..3 and a random atomic mu."""
    d = int(rng.integers(1, 4))
    k = int(rng.integers(1, 4))
    params = _random_block(rng, d, k)
    mu = _random_atomic(rng, d)
    return d, k, params, mu, nu_from_mu(mu, params)


def _ints(rng, low: int, high: int, size: int) -> Tuple[int, ...]:
    """size integers drawn from [low, high) as a tuple of Python ints."""
    return tuple(rng.integers(low, high, size=size).tolist())


# ---------------------------------------------------------------------------
# C01: closed-form transforms against the quadrature oracle.

_C01_DIMS: Tuple[Tuple[int, int], ...] = (
    ((1, 1),) * 8 + ((2, 1),) * 4 + ((1, 2),) * 4 + ((2, 2),) * 2 + ((3, 2),) + ((2, 3),)
)


def _check_transform_oracle(scenario, thread, cfg, rng) -> List[StateReport]:
    gaps = []
    for d, k in _C01_DIMS:
        params = _random_block(rng, d, k)
        mu, box = _random_atomic(rng, d), index_box(d, 3)
        closed = nu_from_mu(mu, params).moments(box)
        gaps.extend(abs(c - q) for c, q in zip(closed, _laplace_batch(mu, params, box)))
    return [
        _residual_row(
            "C01", 0,
            f"max |closed - quadrature| over {len(gaps)} moments, {len(_C01_DIMS)} random blocks",
            _worst(gaps), ORACLE_TOL,
        ),
    ]


# ---------------------------------------------------------------------------
# C02: mass identities.


def _check_mass_identities(scenario, thread, cfg, rng) -> List[StateReport]:
    fwd, bwd = [], []
    for _ in range(10):
        _, _, params, mu, nu = _random_setup(rng)
        fwd.append(abs(nu.total_mass() - mu.total_mass() / params.mass_factor()))
        back = mu_from_nu(nu, params, check=False)
        bwd.append(abs(back.total_mass() - nu.total_mass() * params.mass_factor()))
    rows = [
        _residual_row(
            "C02", 0,
            "max |  ||nu_mu|| - ||mu|| / prod(beta r_j)  | over 10 random blocks",
            _worst(fwd), CLOSED_FORM_TOL,
        ),
        _residual_row(
            "C02", 0,
            "max |  ||mu_nu|| - ||nu|| * prod(beta r_j)  | over 10 random blocks",
            _worst(bwd), CLOSED_FORM_TOL,
        ),
    ]
    for m in range(1, scenario.depth + 1):
        params = BlockParams.at_level(scenario, m)
        mu_m = thread.measure(m)
        nu = nu_from_mu(mu_m, params, check=False)
        expected = mu_m.total_mass() / params.mass_factor()
        rows.append(
            _row(
                "C02", m,
                "thread level mass identity ||nu_mu|| = ||mu|| / prod(beta r_j)",
                nu.total_mass(), expected, abs(nu.total_mass() - expected), CLOSED_FORM_TOL,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# C03: round trips on sampled moments.


def _check_round_trips(scenario, thread, cfg, rng) -> List[StateReport]:
    gaps = []
    trials, radius = 6, cfg.moment_box
    for _ in range(trials):
        d, _, params, mu, nu = _random_setup(rng)
        mu_back = mu_from_nu(nu, params, check=False)
        nu_back = nu_from_mu(mu_back, params, check=False)
        kappa = _random_atomic(rng, d, mass=1.0 / params.partition_value())
        nu2 = nu_from_kappa(kappa, params)
        kappa_back = kappa_from_nu(nu2, params)
        nu2_back = nu_from_kappa(kappa_back, params)
        samples = min(20, (2 * radius + 1) ** d)
        N = np.array([rng.integers(-radius, radius + 1, size=d) for _ in range(samples)])
        for back, there in ((mu_back, mu), (nu_back, nu), (kappa_back, kappa), (nu2_back, nu2)):
            gaps.extend(np.abs(back.moments(N) - there.moments(N)))
    rows = [
        _residual_row(
            "C03", 0,
            f"max round-trip moment defect over {trials} random blocks "
            "(laplace and geometric pairs, both orders)",
            _worst(gaps), ENGINE_TOL,
        )
    ]
    for m in range(1, scenario.depth + 1):
        params = BlockParams.at_level(scenario, m)
        mu_m = thread.measure(m)
        nu = nu_from_mu(mu_m, params, check=False)
        back = mu_from_nu(nu, params, check=False)
        box = index_box(scenario.dims.d, min(radius, 3))
        rows.append(
            _residual_row(
                "C03", m,
                "thread level round trip mu -> nu -> mu",
                _worst(np.abs(back.moments(box) - mu_m.moments(box))), ENGINE_TOL,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# C04: subinvariance positivity of the thread's Laplace averages.


def _subinv_lattice_points(scenario: Scenario, m: int) -> List[np.ndarray]:
    """Fractional steps D_{m,m+l}^(-1) p for l = 1..depth-m and p in [0,2]^k."""
    k = scenario.dims.k
    points: List[np.ndarray] = []
    divisor = np.ones(k)
    for l in range(1, scenario.depth - m + 1):
        divisor = divisor * scenario.level(m + l - 1).D.astype(float)
        for idx in np.ndindex((3,) * k):
            p = np.asarray(idx, dtype=float)
            if not np.any(p):
                continue
            points.append(p / divisor)
    return points


def _positivity_row(m: int, quantity: str, violation: float) -> StateReport:
    """A C04 row: the value is the certified floor, the residual its violation above 0."""
    return _row("C04", m, quantity, -violation, 0.0, _worst((violation,)), POSITIVITY_TOL)


def _check_subinv_positivity(scenario, thread, cfg, rng) -> List[StateReport]:
    certify = functools.partial(positivity_test, moment_radius=cfg.moment_box)
    rows = []
    for m in range(1, scenario.depth + 1):
        params = BlockParams.at_level(scenario, m)
        mu_m = thread.measure(m)
        nu = nu_from_mu(mu_m, params, check=False)
        verdict = certify(nu)
        rows.append(
            _positivity_row(
                m,
                "nu_mu positivity certificate (least moment-matrix eigenvalue)"
                if verdict.is_positive
                else f"nu_mu positivity certificate: {verdict.describe()}",
                -verdict.min_eigenvalue,
            )
        )
        s_points = [rng.uniform(0.0, _s_max(params), scenario.dims.k) for _ in range(cfg.s_samples)]
        s_points.extend(_subinv_lattice_points(scenario, m))
        quantity = (
            f"defect positivity over {cfg.s_samples} sampled s + "
            f"{len(s_points) - cfg.s_samples} lattice points"
        )
        if not s_points:
            rows.append(_row("C04", m, quantity, 0.0, 0.0, 0.0, POSITIVITY_TOL, status="skip"))
            continue
        verdicts = [certify(defect_measure_cts(nu, s, params)) for s in s_points]
        violations = [-v.min_eigenvalue for v in verdicts]
        worst = int(np.argmax(violations))  # the first worst s, or the first NaN
        if not verdicts[worst].is_positive:
            quantity += f" worst s={np.round(s_points[worst], 4).tolist()}: "
            quantity += verdicts[worst].describe()
        # the row's value is the certified floor itself, which may lie above 0,
        # so the violations' max is taken without _worst's 0.0
        rows.append(_positivity_row(m, quantity, float(np.max(violations))))
    return rows


# ---------------------------------------------------------------------------
# C05: KMS residuals of the thread's level states.


def _check_kms_residuals(scenario, thread, cfg, rng) -> List[StateReport]:
    rows = []
    k, d, depth = scenario.dims.k, scenario.dims.d, scenario.depth
    # one generator call per kind of draw: every level's word pairs (a, b) and a
    # random atomic measure, whose state's moments never vanish (so not 0 = 0)
    points, weights = rng.random((depth, 3, d)), rng.dirichlet(np.ones(3), size=depth)
    pq = rng.integers(0, 4, size=(depth, cfg.samples, 2, 1, 2, k))
    ns = rng.integers(-3, 4, size=(depth, cfg.samples, 2, 1, d))
    # raise b's exponents so that q_b - p_b = p_a - q_a: ab has gauge degree 0,
    # so phi(ab) need not vanish and the pair tests the KMS condition
    p_a, q_a, p_b = pq[:, :, 0, 0, 0], pq[:, :, 0, 0, 1], pq[:, :, 1, 0, 0]
    p_b = p_b + np.maximum(0, q_a - p_a - p_b)
    pq[:, :, 1, 0, 0], pq[:, :, 1, 0, 1] = p_b, p_b + p_a - q_a
    parts = pq[..., 0, :], ns, pq[..., 1, :]
    for m in range(1, depth + 1):
        params = BlockParams.at_level(scenario, m)
        nu_m = normalized_nu(thread, m)
        nu_rand = _normalized_average(AtomicMeasure(points[m - 1], weights[m - 1]), params)
        # KMS holds in both orders, so each pair twists the word whose factor
        # e^(-beta (p - q).r) is at most 1: a large r cannot overflow it
        swap = ((p_a - q_a)[m - 1] @ params.r < 0)[:, None, None, None]
        p, n, q = (np.where(swap, x[m - 1, :, ::-1], x[m - 1]) for x in parts)
        ones = np.ones((cfg.samples, 1), complex)
        a, b = (engine._batch(p[:, j], n[:, j], q[:, j], ones) for j in (0, 1))
        residuals = engine._kms_residuals((nu_m, nu_rand), params, a, b)
        rows.append(
            _residual_row(
                "C05", m,
                f"max KMS residual |phi(ab) - phi(b a_twisted)| over {cfg.samples} "
                "degree-matched word pairs (thread state and a random atomic state)",
                _worst(residuals), ENGINE_TOL,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# C06: closed-form state values against the truncated occupation sum.


def _check_fock_agreement(scenario, thread, cfg, rng) -> List[StateReport]:
    rows, tails = [], []
    setups = 5
    words_per = 10
    for i in range(setups):
        d = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        params = _random_block(rng, d, k)
        kappa = _random_atomic(rng, d, mass=1.0 / params.partition_value())
        nu = nu_from_kappa(kappa, params)
        trunc = FockTruncation.for_params(params)
        # the tail bound is attained at n = 0, so float rounding on either
        # route can land a hair past it; allow rounding slack
        bound = trunc.tail_weight(params) * abs(kappa.total_mass()) * (1 + 1e-9) + 1e-14
        tails.append(bound)
        gaps = []
        for j in range(words_per):
            p = _ints(rng, 0, 4, k)
            q = p if j % 2 == 0 else _ints(rng, 0, 4, k)
            a = AlgebraElement.from_word(Word(p=p, n=_ints(rng, -3, 4, d), q=q, level=1))
            gaps.append(abs(state_eval(nu, params, a) - fock_state_eval(kappa, params, a, trunc)))
        rows.append(
            _residual_row(
                "C06", 0,
                f"setup {i + 1} (d={d}, k={k}, box={trunc.box}): max |state - fock| "
                f"over {words_per} words",
                _worst(gaps), bound,
            )
        )
    rows.append(
        _residual_row(
            "C06", 0,
            f"closed-form tail bound at the default box ({setups} setups)",
            _worst(tails), POSITIVITY_TOL,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# C07: level consistency of the solenoid state.


def _check_level_consistency(scenario, thread, cfg, rng) -> List[StateReport]:
    rows = []
    k, d = scenario.dims.k, scenario.dims.d
    for m in range(1, scenario.depth):
        words = []  # rows [p | n | q] of level-m words
        for _ in range(cfg.samples):
            diagonal, p = rng.integers(0, 2), _ints(rng, 0, 4, k)
            q = p if diagonal else _ints(rng, 0, 4, k)
            words.append(p + _ints(rng, -3, 4, d) + q)
        residuals = _consistency_residuals(thread, m, np.array(words, np.int64))
        rows.append(
            _residual_row(
                "C07", m,
                f"max |psi(embedded word) - psi(word)| over {cfg.samples} words",
                _worst(residuals), ENGINE_TOL,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# C08: resolvent moment of a point mass against the wrapped density route.


def _check_reconciliation(scenario, thread, cfg, rng) -> List[StateReport]:
    # the samples below do not read the scenario; the thread vouches for its blocks
    if (scenario.dims.d, scenario.dims.k) != (1, 1):
        quantity = "skipped: density-route reconciliation needs d = k = 1"
        return [_row("C08", 0, quantity, 0.0, 0.0, 0.0, ENGINE_TOL, status="skip")]
    gaps = []
    for _ in range(20):
        y = float(rng.random())
        theta = float(rng.uniform(0.05, 2.0))
        r = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(0.3, 2.0))
        n = int(rng.integers(-5, 6))
        a_value, b_value = bhs_reconciliation(y, theta, r, beta, n)
        gaps.append(abs(a_value - b_value))
    return [
        _residual_row(
            "C08", 0,
            "max |resolvent moment - wrapped density route| over 20 random tuples",
            _worst(gaps), ENGINE_TOL,
        )
    ]


# ---------------------------------------------------------------------------
# C09: truncated resolvent series recovers nu within the complement weight.


def _check_geometric_inverse(scenario, thread, cfg, rng) -> List[StateReport]:
    rows = []
    for i in range(5):
        d, k, params, _, nu = _random_setup(rng)
        kappa = kappa_from_nu(nu, params)
        box = FockTruncation.for_params(params).box
        # attained at n = 0; rounding slack as in the occupation-sum check
        bound = geometric_tail_fraction(params, box) * abs(nu.total_mass()) * (1 + 1e-9) + 1e-14
        gaps = []
        for _ in range(10):
            n = rng.integers(-cfg.moment_box, cfg.moment_box + 1, size=d)
            gaps.append(abs(truncated_inverse_moment(kappa, params, n, box) - nu.moment(n)))
        rows.append(
            _residual_row(
                "C09", 0,
                f"setup {i + 1} (d={d}, k={k}, box={box}): max |truncated series - nu| "
                "over 10 moments",
                _worst(gaps), bound,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# C10: first-order convergence of the scaled continuous defects.


def _check_limit_convergence(scenario, thread, cfg, rng) -> List[StateReport]:
    rows = []
    for i in range(5):
        d, k, params, _, nu = _random_setup(rng)
        n = rng.integers(-3, 4, size=d)
        if not np.any(n):
            n[0] = 1
        # the expansion parameter is |beta r - 2 pi i theta n| * s, so start
        # the schedule where it is already < 1 or the log-log fit mixes
        # non-asymptotic points and the measured order drops
        t = params.theta_dot(n)
        scale = float(np.max(np.hypot(params.beta * params.r, 2.0 * np.pi * t)))
        s0 = min(0.1, 0.5 / scale)
        schedule = tuple(s0 * 10.0 ** (-0.5 * j) for j in range(7))
        target = mu_from_nu(nu, params, check=False).moment(n)
        values = numeric_limit_mu(nu, params, n, schedule)
        errors = np.abs(values - target)
        usable = errors > 1e-13
        slope = float(
            np.polyfit(np.log10(np.asarray(schedule)[usable]), np.log10(errors[usable]), 1)[0]
        )
        rows.append(
            _row(
                "C10", 0,
                f"setup {i + 1} (d={d}, k={k}): empirical convergence order of the "
                "scaled defects",
                slope, 1.0, _worst((0.9 - slope,)), 0.0,
            )
        )
        zero = np.zeros(d, dtype=np.int64)
        mass_bound = params.mass_factor() * abs(nu.total_mass())
        zero_values = numeric_limit_mu(nu, params, zero, schedule).real
        monotone = bool(np.all(np.diff(zero_values) > -1e-12))
        below = bool(np.all(zero_values <= mass_bound * (1 + 1e-12)))
        rows.append(
            _row(
                "C10", 0,
                f"setup {i + 1}: n=0 scaled defect mass approaches prod(beta r_j)||nu|| "
                "from below",
                zero_values[-1], mass_bound, _worst((float(np.max(zero_values)) - mass_bound,)),
                CLOSED_FORM_TOL, status="pass" if (monotone and below) else "fail",
            )
        )
    return rows


# ---------------------------------------------------------------------------
# C11: multiplication engine fuzz plus the dense operator check.


def _check_engine_fuzz(scenario, thread, cfg, rng) -> List[StateReport]:
    k, d, count = scenario.dims.k, scenario.dims.d, FUZZ_COUNT
    # one generator call per kind of draw.  An instance's exponent rows 0-5 are
    # the terms of a, b and c; row 6 is the rotation relation's p (q unused), n.
    pq, ns = rng.integers(0, 4, size=(count, 7, 2, k)), rng.integers(-3, 4, size=(count, 7, d))
    coeffs = rng.normal(size=(count, 6, 2)).view(complex)[..., 0]
    ts = rng.uniform(-2.0, 2.0, size=(count, 2))
    # the dense check: a measure kappa and 20 pairs of one-term elements
    kappa = _random_atomic(rng, d)
    dense_pq = rng.integers(0, 2, size=(20, 2, 1, 2, k))
    dense_ns = rng.integers(-2, 3, size=(20, 2, 1, d))
    dense_coeffs = rng.normal(size=(20, 2, 1, 2)).view(complex)[..., 0]
    # instance i is at level 1 + i % depth: one kernel call per stage, with its own theta and r
    levels = [scenario.level(m) for m in range(1, scenario.depth + 1)]
    at = np.arange(count) % scenario.depth
    theta, r = np.stack([lvl.theta for lvl in levels])[at], np.stack([lvl.r for lvl in levels])[at]
    mul = lambda x, y: engine._product(x, y, theta)
    flow = lambda x, t: engine._dynamics(x, t.astype(complex), r)
    p, q = pq[:, :, 0], pq[:, :, 1]
    a, b, c = (engine._batch(*(x[:, j:j + 2] for x in (p, ns, q, coeffs))) for j in (0, 2, 4))
    (t1, t2), ab, a_t1 = ts.T, mul(a, b), flow(a, ts[:, 0])
    gaps = [
        engine._gaps(mul(ab, c), mul(a, mul(b, c))),
        engine._gaps(engine._adjoint(ab, k), mul(engine._adjoint(b, k), engine._adjoint(a, k))),
        engine._gaps(flow(a_t1, t2), flow(a, t1 + t2)),
        engine._gaps(flow(ab, t1), mul(a_t1, flow(b, t1))),
    ]
    # rotation relation: U_n V_p = e^(2 pi i p.theta n) V_p U_n, with the
    # reference phase formed per instance by numpy, apart from the engine
    p_v, n_u, one = p[:, 6:], ns[:, 6:], np.ones((count, 1), complex)
    u_word = engine._batch(0 * p_v, n_u, 0 * p_v, one)
    v_word = engine._batch(p_v, 0 * n_u, 0 * p_v, one)
    phase = np.array([
        complex(np.exp(2j * np.pi * float(np.asarray(p, dtype=float) @ (
            np.mod(levels[m].theta, 1.0) @ np.asarray(n, dtype=float)))))
        for p, n, m in zip(pq[:, 6, 0].tolist(), ns[:, 6].tolist(), at.tolist())
    ])
    gaps.append(engine._gaps(mul(u_word, v_word), engine._scaled(mul(v_word, u_word), phase)))
    gaps = np.concatenate(gaps).tolist()
    rows = [
        _residual_row(
            "C11", 0,
            f"engine fuzz over {count} instances (associativity, involution, "
            "dynamics group law and homomorphism, rotation relation)",
            _worst(gaps), FUZZ_TOL,
        )
    ]

    box = 3
    params = BlockParams.at_level(scenario, 1)
    n_atoms = len(kappa.weights)
    occupancy = list(np.ndindex((box + 1,) * k))
    safe_cols = [
        f * n_atoms + a_idx
        for f, occ in enumerate(occupancy)
        if max(occ) <= 1
        for a_idx in range(n_atoms)
    ]
    dense_parts = dense_pq[..., 0, :], dense_ns, dense_pq[..., 1, :], dense_coeffs
    lefts, rights = (engine._batch(*(x[:, j] for x in dense_parts)) for j in (0, 1))
    prods = engine._product(lefts, rights, params.theta)
    dense = []
    for a, b, ab in zip(*(engine._unpack(x, 1, k) for x in (lefts, rights, prods))):
        mat_a = fock_element_matrix(a, params, kappa, box)
        mat_b = fock_element_matrix(b, params, kappa, box)
        mat_ab = fock_element_matrix(ab, params, kappa, box)
        diff = (mat_a @ mat_b - mat_ab)[:, safe_cols]
        dense += np.abs(diff).ravel().tolist()
    rows.append(
        _residual_row(
            "C11", 1,
            "dense operator check of 20 products at box P=3 "
            "(columns whose orbits stay inside the box)",
            _worst(dense), FUZZ_TOL,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# C12: the solenoid state against its quadrature oracle on the tower.


def _check_psi_oracle(scenario, thread, cfg, rng) -> List[StateReport]:
    rows = []
    k, d = scenario.dims.k, scenario.dims.d
    for m in range(1, scenario.depth + 1):
        words = []
        for _ in range(10):
            p = _ints(rng, 0, 3, k)
            words.append(Word(p=p, n=_ints(rng, -3, 4, d), q=p, level=m))
        psi = _psi_values(thread, m, engine._rows(words, k, d))
        gaps = [abs(value - psi_oracle(thread, w)) for value, w in zip(psi, words)]
        quantity = "max |psi - quadrature| over 10 diagonal words"
        rows.append(_residual_row("C12", m, quantity, _worst(gaps), ORACLE_TOL))
    return rows


# ---------------------------------------------------------------------------

CHECKS: Tuple[Tuple[str, str, Callable], ...] = (
    ("C01", "transforms vs quadrature oracle", _check_transform_oracle),
    ("C02", "mass identities", _check_mass_identities),
    ("C03", "transform round trips", _check_round_trips),
    ("C04", "subinvariance positivity", _check_subinv_positivity),
    ("C05", "KMS residuals", _check_kms_residuals),
    ("C06", "occupation-sum oracle agreement", _check_fock_agreement),
    ("C07", "level consistency", _check_level_consistency),
    ("C08", "point-mass density reconciliation", _check_reconciliation),
    ("C09", "geometric series inverse", _check_geometric_inverse),
    ("C10", "scaled defect limit", _check_limit_convergence),
    ("C11", "multiplication engine fuzz", _check_engine_fuzz),
    ("C12", "solenoid state vs quadrature oracle", _check_psi_oracle),
)

SUITES: Dict[str, Tuple[str, ...]] = {
    "kms": ("C05", "C06", "C11"),
    "subinv": ("C01", "C02", "C04"),
    "roundtrip": ("C03", "C09", "C10"),
    "consistency": ("C07", "C12"),
    "reconcile": ("C08",),
    "all": tuple(entry[0] for entry in CHECKS),
}


def run_checks(
    check_ids: Sequence[str], thread: SolenoidMeasureThread, cfg: SuiteConfig
) -> List[StateReport]:
    """Run the named checks on the thread and its scenario, in CHECKS order (by check id).

    Every check draws from its own generator seeded by (cfg.seed, check
    position), so a check's rows do not depend on the subset requested.  A
    check runs with numpy's invalid and divide events raised; such an event
    (the kernels ignore theirs and keep the NaN) is one failing row naming it.
    """
    wanted = set(check_ids)
    unknown = wanted - {cid for cid, _t, _f in CHECKS}
    if unknown:
        raise ValueError(f"unknown check ids: {sorted(unknown)}")
    rows: List[StateReport] = []
    for idx, (cid, _title, fn) in enumerate(CHECKS):
        if cid in wanted:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, idx)))
            try:
                with np.errstate(invalid="raise", divide="raise"):
                    rows.extend(fn(thread.scenario, thread, cfg, rng))
            except FloatingPointError as exc:
                quantity = f"floating-point event: {exc}"
                rows.append(_row(cid, 0, quantity, np.nan, 0.0, np.nan, 0.0, status="fail"))
    return rows


def overall_pass(rows: Sequence[StateReport]) -> bool:
    return all(row.status != "fail" for row in rows)


def render_text(rows: Sequence[StateReport]) -> str:
    titles = {cid: title for cid, title, _fn in CHECKS}
    lines = []
    current = None
    for row in rows:
        if row.check_id != current:
            current = row.check_id
            lines.append(f"[{row.check_id}] {titles.get(row.check_id, row.check_id)}")
        mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[row.status]
        level = f" level {row.level}" if row.level else ""
        # a failing row says how its residual stands to its bound; a NaN is never <=
        op = ">" if row.status == "fail" and not row.residual <= row.bound else "<="
        lines.append(
            f"  {mark}{level}: {row.quantity} | residual {row.residual:.3e} "
            f"{op} bound {row.bound:.3e}"
            if row.status != "skip"
            else f"  {mark}{level}: {row.quantity}"
        )
    verdict = "ALL CHECKS PASSED" if overall_pass(rows) else "CHECK FAILURES PRESENT"
    lines.append(verdict)
    return "\n".join(lines) + "\n"


# The report's columns, in the order a CSV report writes them.
_COLUMNS = (
    "check_id", "level", "quantity", "value_re", "value_im",
    "reference_re", "reference_im", "residual", "bound", "pass",
)


def _row_dict(row: StateReport) -> dict:
    cells = (
        row.check_id, row.level, row.quantity, row.value.real, row.value.imag,
        row.reference.real, row.reference.imag, row.residual, row.bound, row.status,
    )
    return dict(zip(_COLUMNS, cells, strict=True))


def render_json(rows: Sequence[StateReport], config: dict) -> str:
    import json

    payload = {
        "config": config,
        "overall_pass": overall_pass(rows),
        "checks": [_row_dict(r) for r in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def render_csv(rows: Sequence[StateReport]) -> str:
    """The header line, then one line per row with floats written as .17g."""
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_COLUMNS)
    for row in rows:
        cells = _row_dict(row).values()
        writer.writerow(f"{v:.17g}" if isinstance(v, float) else v for v in cells)
    return buf.getvalue()
