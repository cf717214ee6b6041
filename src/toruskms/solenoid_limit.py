"""Measure threads on the inverse-limit torus and the level-free state formula.

The solenoid underlying a scenario is the inverse limit of tori where level
m+1 maps onto level m by x -> E_m^T x mod 1.  A finite thread of probability
measures (mu_1, .., mu_M) is compatible when each mu_m is the pushforward of
mu_(m+1), i.e. on moments

    moment(mu_m, n) = moment(mu_(m+1), E_m n)     for all n in Z^d.

A compatible thread induces one state psi on every level's word algebra at
once: at level m, psi is the equilibrium functional (``state_eval``) of the
probability measure nu_m = c_m * nu_from_mu(mu_m), c_m = prod_j beta r_j^m,

    psi(V_p U_n V*_q at level m)
        = [p == q] e^(-beta p.r^m)
          * prod_j  beta r_j^m / (beta r_j^m - 2 pi i (theta_m n)_j)
          * moment(mu_m, n).

The exact relations between levels telescope the linear factors,

    beta r_j^(m+1) - 2 pi i (theta_(m+1) E_m n)_j
        = (beta r_j^m - 2 pi i (theta_m n)_j) / D_m[j, j],

so embedding a word as (D_m p, E_m n, D_m q) does not change its psi value;
``consistency_residual`` measures exactly that invariance.  Its word rows
[p | n | q] come from toeplitz_algebra's one row builder, ``_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .scenario import ConstraintViolation, Scenario
from .subinvariance import BlockParams, _require_nonnegative, nu_from_mu
from .toeplitz_algebra import Word, _rows, _split, _state_values
from .torus_measure import (
    AtomicMeasure,
    MultipliedMeasure,
    TorusMeasure,
    UniformMeasure,
    atomic_from_json,
    index_box,
    pushforward_dual,
    reduce_mod_1,
)

__all__ = [
    "LevelConstants",
    "SolenoidMeasureThread",
    "level_constants",
    "embed_word",
    "build_thread",
    "thread_from_json",
    "psi_eval",
    "consistency_residual",
    "preimage_points",
    "validate_thread",
    "normalized_nu",
]

COMPAT_TOL = 1e-12
COMPAT_RADIUS = 5
POINT_COMPAT_TOL = 1e-10


@dataclass(frozen=True)
class LevelConstants:
    """Normalization constants c_m = prod_j beta r_j^m and d_m = det D_m.

    They satisfy d_m c_(m+1) = c_m, the discrete change-of-variables factor of
    the level embedding.
    """

    c: Tuple[float, ...]
    dets: Tuple[int, ...]


def level_constants(scenario: Scenario) -> LevelConstants:
    c = tuple(float(np.prod(scenario.beta * lvl.r)) for lvl in scenario.levels)
    dets = tuple(lvl.det_D() for lvl in scenario.levels)
    return LevelConstants(c=c, dets=dets)


@dataclass(frozen=True)
class SolenoidMeasureThread:
    """Per-level probability measures mu_1..mu_M, with every level's block and nu_m built once.

    A measure of the wrong dimension or a signed one (by the sign gate that
    nu_from_mu applies) is a ConstraintViolation; a measure whose mass is not
    finite is left to validate_thread, which lists it.
    """

    scenario: Scenario
    measures: Tuple[TorusMeasure, ...]

    def __post_init__(self):
        object.__setattr__(self, "measures", tuple(self.measures))
        if len(self.measures) != self.scenario.depth:
            raise ConstraintViolation("thread needs one measure per scenario level")
        for m, mu in enumerate(self.measures, 1):
            if mu.d != self.scenario.dims.d:
                raise ConstraintViolation("thread measure dimension does not match the scenario")
            try:
                if np.isfinite(mu.total_mass()):
                    _require_nonnegative(mu)
            except ValueError as exc:
                raise ConstraintViolation(f"level {m} measure: {exc}") from exc
        blocks = (BlockParams.at_level(self.scenario, m) for m in range(1, self.scenario.depth + 1))
        states = tuple((b, _normalized_average(mu, b)) for b, mu in zip(blocks, self.measures))
        object.__setattr__(self, "_states", states)

    def measure(self, m: int) -> TorusMeasure:
        self.scenario.level(m)  # ValueError outside 1..M
        return self.measures[m - 1]

    def _state(self, m: int) -> Tuple[BlockParams, TorusMeasure]:
        """(block, nu_m) of level m."""
        self.scenario.level(m)
        return self._states[m - 1]


def embed_word(w: Word, scenario: Scenario) -> Word:
    """The level-(m+1) image (D_m p, E_m n, D_m q) of a level-m word."""
    k, d = scenario.dims.k, scenario.dims.d
    p, n, q = _split(_embedded(scenario, w.level, _rows([w], k, d)), k)
    return Word(p=tuple(p[0].tolist()), n=tuple(n[0].tolist()), q=tuple(q[0].tolist()),
                level=w.level + 1)


def _embedded(scenario: Scenario, m: int, words) -> np.ndarray:
    """The level-(m+1) images (D_m p, E_m n, D_m q) of level-m word rows [p | n | q].

    Raises ValueError at the top level, and where an image has an entry of
    2**62 or more in modulus, as Word does.
    """
    if m >= scenario.depth:
        raise ValueError(f"level {m} word cannot embed beyond depth {scenario.depth}")
    lvl = scenario.level(m)
    # in Python ints, so that an entry at 2**62 is rejected instead of int64 wrapping it
    p, n, q = _split(words.astype(object), scenario.dims.k)
    D = lvl.D.astype(object)
    up = np.concatenate((p * D, n @ lvl.E.T.astype(object), q * D), 1)
    if up.size and np.max(np.abs(up)) >= 2**62:
        raise ValueError("word exponents must be below 2**62 in modulus")
    return up.astype(np.int64)


def build_thread(
    scenario: Scenario,
    kind: str,
    y1=None,
    points: Optional[Sequence] = None,
    toplevel: Optional[TorusMeasure] = None,
) -> SolenoidMeasureThread:
    """Construct a compatible thread from one of three generators.

    kind="uniform"
        Lebesgue measure at every level (trivially compatible, since E n = 0
        only for n = 0).
    kind="point"
        Point masses.  Either ``points`` lists one torus point per level,
        checked against E_m^T y_(m+1) = y_m mod 1 to 1e-10 (ConstraintViolation
        on failure), or ``y1`` gives the base point and each next level takes
        the canonical preimage (E_m^T)^(-1) y_m mod 1.  The full preimage set
        at each step is exposed by ``preimage_points``.  A malformed ``y1`` or
        ``points`` is a ValueError that names the field.
    kind="toplevel"
        ``toplevel`` is the level-M probability measure (ConstraintViolation
        if its dimension, mass or sign is wrong); lower levels are its
        successive dual pushforwards mu_m = pushforward of mu_(m+1) under
        E_m^T, which is compatible by construction.
    """
    d = scenario.dims.d
    if kind == "uniform":
        measures: List[TorusMeasure] = [UniformMeasure(d) for _ in range(scenario.depth)]
    elif kind == "point":
        try:
            y1 = None if y1 is None else reduce_mod_1(np.atleast_1d(y1))
        except (TypeError, ValueError) as exc:
            raise ValueError(f'thread field "y1" must be a list of numbers, got {y1!r}') from exc
        try:
            pts = None if points is None else [reduce_mod_1(np.atleast_1d(p)) for p in points]
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f'thread field "points" must be a list of number lists, got {points!r}'
            ) from exc
        if pts is not None:
            if len(pts) != scenario.depth:
                raise ConstraintViolation("need one point per level")
            for m in range(1, scenario.depth):
                E = scenario.level(m).E
                image = reduce_mod_1(E.T.astype(float) @ pts[m])
                if _torus_distance(image, pts[m - 1]) > POINT_COMPAT_TOL:
                    raise ConstraintViolation(
                        f"levels {m}->{m + 1}: E^T y_(m+1) = {image.tolist()} "
                        f"differs from y_m = {pts[m - 1].tolist()}"
                    )
        elif y1 is not None:
            pts = [y1]
            for m in range(1, scenario.depth):  # the canonical preimage of each level's point
                Et = scenario.level(m).E.T.astype(float)
                pts.append(reduce_mod_1(np.linalg.solve(Et, pts[-1])))
        else:
            raise ValueError('kind="point" needs either points or y1')
        measures = [AtomicMeasure.point_mass(p) for p in pts]
    elif kind == "toplevel":
        if toplevel is None:
            raise ValueError('kind="toplevel" needs the toplevel measure')
        if toplevel.d != d:
            raise ConstraintViolation("toplevel measure dimension does not match the scenario")
        if abs(toplevel.total_mass() - 1.0) > 1e-10:
            raise ConstraintViolation("toplevel measure must be a probability measure")
        try:
            _require_nonnegative(toplevel)
        except ValueError as exc:
            raise ConstraintViolation(f"toplevel measure: {exc}") from exc
        measures = [toplevel]
        for m in range(scenario.depth - 1, 0, -1):
            measures.append(pushforward_dual(measures[-1], scenario.level(m).E))
        measures.reverse()
    else:
        raise ValueError(f'unknown thread kind {kind!r}')
    return SolenoidMeasureThread(scenario=scenario, measures=tuple(measures))


def thread_from_json(obj: dict, scenario: Scenario) -> SolenoidMeasureThread:
    """Load a thread from parsed {"kind": .., "y1": .., "points": .., "toplevel_measure": ..}.

    The fields go to build_thread as they are, which names a malformed one.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError('thread JSON must be an object with a "kind" field')
    top = obj.get("toplevel_measure") if obj["kind"] == "toplevel" else None
    return build_thread(scenario, kind=obj["kind"], y1=obj.get("y1"), points=obj.get("points"),
                        toplevel=None if top is None else atomic_from_json(top))


def validate_thread(thread: SolenoidMeasureThread) -> List[str]:
    """Collect thread violations on sampled moments; never raises.

    Checks each level's mass and the compatibility relation
    moment(mu_m, n) = moment(mu_(m+1), E_m n) within COMPAT_TOL on |n_i| <= COMPAT_RADIUS.
    A non-finite mass or defect is a violation.
    """
    report: List[str] = []
    scen = thread.scenario
    for m in range(1, scen.depth + 1):
        mass = thread.measure(m).total_mass()
        if not abs(mass - 1.0) <= 1e-10:
            report.append(f"level {m}: mass {mass:.12g} differs from 1")
    box = index_box(scen.dims.d, COMPAT_RADIUS)
    for m in range(1, scen.depth):
        E = scen.level(m).E
        gaps = thread.measure(m).moments(box) - thread.measure(m + 1).moments(box @ E.T)
        worst = float(np.max(np.abs(gaps)))
        if not worst <= COMPAT_TOL:
            report.append(
                f"levels {m}->{m + 1}: compatibility defect {worst:.3e} on |n_i| <= "
                f"{COMPAT_RADIUS} (> {COMPAT_TOL})"
            )
    return report


def _constant(c: float, N) -> float:
    return c


def _normalized_average(mu: TorusMeasure, params: BlockParams) -> TorusMeasure:
    """c * nu_from_mu(mu) with c = prod_j beta r_j, a probability measure when mu is one."""
    nu = nu_from_mu(mu, params, check=False)
    return MultipliedMeasure(nu, partial(_constant, params.mass_factor()), tag="normalize")


def normalized_nu(thread: SolenoidMeasureThread, m: int) -> TorusMeasure:
    """The probability measure nu_m = c_m * nu_from_mu(mu_m) of thread level m."""
    return thread._state(m)[1]


def psi_eval(thread: SolenoidMeasureThread, w: Word) -> complex:
    """Value of the thread's solenoid state on a single spanning word.

    state_eval of normalized_nu(thread, m) on w, where m is the word's level.
    Raises ValueError unless w is k x d and m is within the thread's depth.
    """
    row = _rows([w], thread.scenario.dims.k, thread.scenario.dims.d)
    return complex(_psi_values(thread, w.level, row)[0])


def _psi_values(thread: SolenoidMeasureThread, m: int, words) -> np.ndarray:
    """psi of each level-m word row [p | n | q] of a (B, 2k + d) array, in one state pass."""
    params, nu = thread._state(m)
    live = np.ones((len(words), 1), bool)
    return _state_values(nu, params, (words[:, None], live.astype(complex), live))


def consistency_residual(thread: SolenoidMeasureThread, w: Word) -> float:
    """|psi(embedded word) - psi(word)|; zero for compatible threads.

    The level relations telescope the linear factors and the thread relation
    matches the moments, so the embedding preserves psi exactly.  A word at
    the top level raises ValueError.
    """
    row = _rows([w], thread.scenario.dims.k, thread.scenario.dims.d)
    return float(_consistency_residuals(thread, w.level, row)[0])


def _consistency_residuals(thread: SolenoidMeasureThread, m: int, words) -> np.ndarray:
    """consistency_residual of each level-m word row [p | n | q] of a (B, 2k + d) array."""
    up = _embedded(thread.scenario, m, words)
    return np.abs(_psi_values(thread, m + 1, up) - _psi_values(thread, m, words))


def preimage_points(y, E) -> np.ndarray:
    """All det(E) preimages of y under x -> E^T x mod 1, one per lattice coset.

    Enumerates integer offsets z over the bounding box of E^T [0,1)^d, solves
    E^T x = y + z, and deduplicates mod 1.  The number of distinct solutions
    equals |det E|.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if not np.all(np.isfinite(y)):
        raise ValueError(f"y must be finite, got {y.tolist()}")
    E = np.atleast_2d(np.asarray(E))
    Et = E.T.astype(float)
    det = int(round(abs(float(np.linalg.det(Et)))))
    if det == 0:
        raise ValueError("E must be invertible")
    lo = np.floor(np.minimum(0.0, Et).sum(axis=1)).astype(int)
    hi = np.ceil(np.maximum(0.0, Et).sum(axis=1)).astype(int)
    found: List[np.ndarray] = []
    for offset in np.ndindex(*(hi - lo + 1)):
        z = np.asarray(offset, dtype=float) + lo
        x = reduce_mod_1(np.linalg.solve(Et, y + z))
        if not any(_torus_distance(x, other) <= 1e-9 for other in found):
            found.append(x)
    if len(found) != det:
        raise ArithmeticError(
            f"found {len(found)} preimages, expected |det E| = {det}"
        )
    return np.asarray(sorted(found, key=lambda v: tuple(np.round(v, 12))))


def _torus_distance(a: np.ndarray, b: np.ndarray) -> float:
    """The largest coordinate distance between two points of [0, 1)^d on the torus."""
    gap = np.abs(a - b)
    return float(np.max(np.minimum(gap, 1.0 - gap)))
