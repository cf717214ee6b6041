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
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .oracle import (
    FockTruncation,
    bhs_reconciliation,
    fock_element_matrix,
    fock_state_eval,
    fock_tail_bound,
    geometric_tail_fraction,
    laplace_quadrature,
    truncated_inverse_moment,
)
from .scenario import Scenario
from .solenoid_limit import (
    SolenoidMeasureThread,
    consistency_residual,
    normalized_nu,
)
from .subinvariance import (
    BlockParams,
    defect_measure_cts,
    kappa_from_nu,
    mu_from_nu,
    nu_from_kappa,
    nu_from_mu,
    numeric_limit_mu,
)
from .toeplitz_algebra import (
    AlgebraElement,
    Word,
    adjoint,
    apply_dynamics,
    kms_residual,
    multiply,
    state_eval,
)
from .torus_measure import (
    POSITIVITY_TOL,
    AtomicMeasure,
    MultipliedMeasure,
    index_box,
    positivity_test,
)

__all__ = [
    "SuiteConfig",
    "StateReport",
    "CHECKS",
    "SUITES",
    "run_checks",
    "run_suite",
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


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by all checks; a size that checks nothing raises ValueError."""

    samples: int = 100
    s_samples: int = 50
    moment_box: int = 5
    seed: int = 0
    fuzz_count: int = 500

    def __post_init__(self):
        for size, low in (("samples", 1), ("s_samples", 0), ("moment_box", 0), ("fuzz_count", 1)):
            if getattr(self, size) < low:
                raise ValueError(f"{size} must be at least {low}, got {getattr(self, size)}")


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


def _worst(values: Iterable[float], start: float = 0.0) -> float:
    """Largest of start and values, folded left to right by two rules.

    - The first NaN wins and ends the fold.  The builtin max drops a NaN that
      is not its first argument, so a NaN residual would pass as the one
      before it.
    - On a tie the later value wins, as in a two-element np.max: the fold of
      (0.0, -0.0) is -0.0, and a report prints that sign.
    """
    worst = float(start)
    if worst != worst:
        return worst
    for value in values:
        value = float(value)
        if value != value:
            return value
        if value >= worst:
            worst = value
    return worst


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


def _random_atomic(rng, d: int, atoms: int = 3, mass: float = 1.0) -> AtomicMeasure:
    points = rng.random((atoms, d))
    weights = rng.dirichlet(np.ones(atoms)) * mass
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


def _random_word(rng, k: int, d: int, level: int, diagonal: bool = False) -> Word:
    p = _ints(rng, 0, 4, k)
    q = p if diagonal else _ints(rng, 0, 4, k)
    return Word(p=p, n=_ints(rng, -3, 4, d), q=q, level=level)


def _random_element(rng, k: int, d: int, level: int, terms: int = 2) -> AlgebraElement:
    out: Dict[Word, complex] = {}
    for _ in range(terms):
        w = _random_word(rng, k, d, level)
        coeff = complex(rng.normal(), rng.normal())
        out[w] = out.get(w, 0j) + coeff
    return AlgebraElement(level, out)


# ---------------------------------------------------------------------------
# C01: closed-form transforms against the quadrature oracle.

_C01_DIMS: Tuple[Tuple[int, int], ...] = (
    ((1, 1),) * 8 + ((2, 1),) * 4 + ((1, 2),) * 4 + ((2, 2),) * 2 + ((3, 2),) + ((2, 3),)
)


def _check_transform_oracle(scenario, thread, cfg, rng) -> List[StateReport]:
    start = time.perf_counter()
    gaps = []
    for d, k in _C01_DIMS:
        params = _random_block(rng, d, k)
        mu = _random_atomic(rng, d)
        nu = nu_from_mu(mu, params)
        gaps.extend(abs(nu.moment(n) - laplace_quadrature(mu, params, n)) for n in index_box(d, 3))
    elapsed = time.perf_counter() - start
    # the row carries only the verdict, not the measured time: reports must be
    # byte-identical across runs of the same seed and config
    return [
        _residual_row(
            "C01", 0,
            f"max |closed - quadrature| over {len(gaps)} moments, {len(_C01_DIMS)} random blocks",
            _worst(gaps), ORACLE_TOL,
        ),
        _row(
            "C01", 0, "comparison finished within the 30 second budget", 30.0, 30.0, 0.0, 0.0,
            status="pass" if elapsed < 30.0 else "fail",
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
    trials = 6
    for _ in range(trials):
        d, _, params, mu, nu = _random_setup(rng)
        mu_back = mu_from_nu(nu, params, check=False)
        nu_back = nu_from_mu(mu_from_nu(nu, params, check=False), params, check=False)
        kappa = _random_atomic(rng, d, mass=1.0 / params.partition_value())
        nu2 = nu_from_kappa(kappa, params)
        kappa_back = kappa_from_nu(nu2, params)
        nu2_back = nu_from_kappa(kappa_from_nu(nu2, params), params)
        samples = min(20, (2 * cfg.moment_box + 1) ** d)
        for _ in range(samples):
            n = rng.integers(-cfg.moment_box, cfg.moment_box + 1, size=d)
            gaps += (
                abs(mu_back.moment(n) - mu.moment(n)),
                abs(nu_back.moment(n) - nu.moment(n)),
                abs(kappa_back.moment(n) - kappa.moment(n)),
                abs(nu2_back.moment(n) - nu2.moment(n)),
            )
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
        box = index_box(scenario.dims.d, min(cfg.moment_box, 3))
        rows.append(
            _residual_row(
                "C03", m,
                "thread level round trip mu -> nu -> mu",
                _worst(abs(back.moment(n) - mu_m.moment(n)) for n in box), ENGINE_TOL,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# C04: subinvariance positivity of the thread's Laplace averages.


def _subinv_lattice_points(scenario: Scenario, m: int, p_max: int = 2) -> List[np.ndarray]:
    """Fractional steps D_{m,m+l}^(-1) p for l = 1..depth-m and p in [0,p_max]^k."""
    k = scenario.dims.k
    points: List[np.ndarray] = []
    divisor = np.ones(k)
    for l in range(1, scenario.depth - m + 1):
        divisor = divisor * scenario.level(m + l - 1).D.astype(float)
        for idx in np.ndindex((p_max + 1,) * k):
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
        # the Fejer density is a Rayleigh quotient of the moment matrix, so the
        # min of the two named here is the spectrum floor; the text is frozen
        rows.append(
            _positivity_row(
                m,
                "nu_mu positivity certificate (min of Fejer density, moment matrix spectrum)"
                if verdict.is_positive
                else f"nu_mu positivity certificate: {verdict.describe()}",
                -verdict.min_eigenvalue,
            )
        )
        s_max = 5.0 / (scenario.beta * float(np.min(params.r)))
        s_points = [rng.uniform(0.0, s_max, scenario.dims.k) for _ in range(cfg.s_samples)]
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
        # numpy's reduction of a long list orders zero signs its own way, and
        # the report prints that sign, so this one stays on np.max
        rows.append(_positivity_row(m, quantity, float(np.max(violations))))
    return rows


# ---------------------------------------------------------------------------
# C05: KMS residuals of the thread's level states.


def _check_kms_residuals(scenario, thread, cfg, rng) -> List[StateReport]:
    rows = []
    k, d = scenario.dims.k, scenario.dims.d
    for m in range(1, scenario.depth + 1):
        params = BlockParams.at_level(scenario, m)
        nu_m = normalized_nu(thread, m)
        # a second state from a random atomic measure; its moments never
        # vanish, so the identity is exercised away from 0 = 0
        nu_rand = nu_from_mu(_random_atomic(rng, d), params, check=False)
        c_m = params.mass_factor()
        nu_rand = MultipliedMeasure(nu_rand, lambda N, c=c_m: c, tag="normalize")
        residuals = []
        for i in range(cfg.samples):
            a = AlgebraElement.from_word(_random_word(rng, k, d, m))
            b = AlgebraElement.from_word(_random_word(rng, k, d, m))
            state = nu_m if i % 2 == 0 else nu_rand
            residuals.append(kms_residual(state, params, a, b))
        rows.append(
            _residual_row(
                "C05", m,
                f"max KMS residual |phi(ab) - phi(b a_twisted)| over {cfg.samples} "
                "word pairs (thread state and a random atomic state)",
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
        bound = fock_tail_bound(params, abs(kappa.total_mass()), trunc) * (1 + 1e-9) + 1e-14
        tails.append(bound)
        gaps = []
        for j in range(words_per):
            a = AlgebraElement.from_word(_random_word(rng, k, d, 1, diagonal=(j % 2 == 0)))
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
        words = [
            _random_word(rng, k, d, m, diagonal=bool(rng.integers(0, 2)))
            for _ in range(cfg.samples)
        ]
        rows.append(
            _residual_row(
                "C07", m,
                f"max |psi(embedded word) - psi(word)| over {cfg.samples} words",
                _worst([consistency_residual(thread, w) for w in words]), ENGINE_TOL,
            )
        )
    return rows


# ---------------------------------------------------------------------------
# C08: resolvent moment of a point mass against the wrapped density route.


def _check_reconciliation(scenario, thread, cfg, rng) -> List[StateReport]:
    # the samples below do not read the scenario, but a skip or a pass must
    # not vouch for a tower with an invalid block (raises InvalidBlock)
    for m in range(1, scenario.depth + 1):
        BlockParams.at_level(scenario, m)
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
                slope, 1.0, _worst((0.9 - slope,)), 0.0 if slope >= 0.9 else -1.0,
                status="pass" if slope >= 0.9 else "fail",
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
    k, d = scenario.dims.k, scenario.dims.d
    gaps = []
    for i in range(cfg.fuzz_count):
        m = 1 + (i % scenario.depth)
        lvl = scenario.level(m)
        theta, r = lvl.theta, lvl.r
        a = _random_element(rng, k, d, m)
        b = _random_element(rng, k, d, m)
        c = _random_element(rng, k, d, m)
        # the engine is deterministic, so ab and alpha_t1(a) are formed once
        ab = multiply(a, b, theta)
        left = multiply(ab, c, theta)
        right = multiply(a, multiply(b, c, theta), theta)
        gaps.append(left.sup_coefficient_distance(right))
        inv_l = adjoint(ab)
        inv_r = multiply(adjoint(b), adjoint(a), theta)
        gaps.append(inv_l.sup_coefficient_distance(inv_r))
        t1 = float(rng.uniform(-2.0, 2.0))
        t2 = float(rng.uniform(-2.0, 2.0))
        a_t1 = apply_dynamics(a, t1, r)
        one = apply_dynamics(a_t1, t2, r)
        two = apply_dynamics(a, t1 + t2, r)
        gaps.append(one.sup_coefficient_distance(two))
        hom_l = apply_dynamics(ab, t1, r)
        hom_r = multiply(a_t1, apply_dynamics(b, t1, r), theta)
        gaps.append(hom_l.sup_coefficient_distance(hom_r))
        # rotation relation: U_n V_p = e^(2 pi i p.theta n) V_p U_n
        p = _ints(rng, 0, 4, k)
        n = _ints(rng, -3, 4, d)
        u_word = AlgebraElement.from_word(Word(p=(0,) * k, n=n, q=(0,) * k, level=m))
        v_word = AlgebraElement.from_word(Word(p=p, n=(0,) * d, q=(0,) * k, level=m))
        tn = np.mod(theta, 1.0) @ np.asarray(n, dtype=float)
        phase = complex(np.exp(2j * np.pi * float(np.asarray(p, dtype=float) @ tn)))
        comm_l = multiply(u_word, v_word, theta)
        comm_r = phase * multiply(v_word, u_word, theta)
        gaps.append(comm_l.sup_coefficient_distance(comm_r))
    rows = [
        _residual_row(
            "C11", 0,
            f"engine fuzz over {cfg.fuzz_count} instances (associativity, involution, "
            "dynamics group law and homomorphism, rotation relation)",
            _worst(gaps), FUZZ_TOL,
        )
    ]

    box = 3
    params = BlockParams.at_level(scenario, 1)
    kappa = _random_atomic(rng, d, atoms=3)
    n_atoms = len(kappa.weights)
    occupancy = list(np.ndindex((box + 1,) * k))
    safe_cols = [
        f * n_atoms + a_idx
        for f, occ in enumerate(occupancy)
        if max(occ) <= 1
        for a_idx in range(n_atoms)
    ]
    dense = []
    for _ in range(20):
        wa, wb = (
            Word(p=_ints(rng, 0, 2, k), n=_ints(rng, -2, 3, d), q=_ints(rng, 0, 2, k), level=1)
            for _ in range(2)
        )
        a = AlgebraElement.from_word(wa, complex(rng.normal(), rng.normal()))
        b = AlgebraElement.from_word(wb, complex(rng.normal(), rng.normal()))
        mat_a = fock_element_matrix(a, params, kappa, box)
        mat_b = fock_element_matrix(b, params, kappa, box)
        mat_ab = fock_element_matrix(multiply(a, b, params.theta), params, kappa, box)
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
)

SUITES: Dict[str, Tuple[str, ...]] = {
    "kms": ("C05", "C06", "C11"),
    "subinv": ("C01", "C02", "C04"),
    "roundtrip": ("C03", "C09", "C10"),
    "consistency": ("C07",),
    "reconcile": ("C08",),
    "all": tuple(entry[0] for entry in CHECKS),
}


def run_checks(
    check_ids: Sequence[str],
    scenario: Scenario,
    thread: SolenoidMeasureThread,
    cfg: Optional[SuiteConfig] = None,
) -> List[StateReport]:
    """Run the named checks in turn, in CHECKS order (sorted by check id).

    Every check draws from its own generator seeded by (cfg.seed, check
    position), so a check's rows do not depend on the subset requested.
    """
    cfg = cfg or SuiteConfig()
    wanted = set(check_ids)
    unknown = wanted - {cid for cid, _t, _f in CHECKS}
    if unknown:
        raise ValueError(f"unknown check ids: {sorted(unknown)}")
    rows: List[StateReport] = []
    for idx, (cid, _title, fn) in enumerate(CHECKS):
        if cid in wanted:
            rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, idx)))
            rows.extend(fn(scenario, thread, cfg, rng))
    return rows


def run_suite(
    name: str,
    scenario: Scenario,
    thread: SolenoidMeasureThread,
    cfg: Optional[SuiteConfig] = None,
) -> List[StateReport]:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return run_checks(SUITES[name], scenario, thread, cfg)


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
        lines.append(
            f"  {mark}{level}: {row.quantity} | residual {row.residual:.3e} "
            f"<= bound {row.bound:.3e}"
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


def render_json(rows: Sequence[StateReport], config: Optional[dict] = None) -> str:
    import json

    payload = {
        "config": config or {},
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
