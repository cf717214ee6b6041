"""Measure threads on the inverse-limit torus and the level-free state formula.

The solenoid underlying a scenario is the inverse limit of tori where level
m+1 maps onto level m by x -> E_m^T x mod 1.  A finite thread of probability
measures (mu_1, .., mu_M) is compatible when each mu_m is the pushforward of
mu_(m+1), i.e. on moments

    moment(mu_m, n) = moment(mu_(m+1), E_m n)     for all n in Z^d.

A compatible thread induces one state on every level's word algebra at once:

    psi(V_p U_n V*_q at level m)
        = [p == q] e^(-beta p.r^m)
          * prod_j  beta r_j^m / (beta r_j^m - 2 pi i (theta_m n)_j)
          * moment(mu_m, n),

the same value the level's equilibrium functional assigns when fed the
normalized Laplace average nu_m = c_m * nu_from_mu(mu_m), c_m = prod_j
beta r_j^m.  The exact relations between levels telescope the linear factors,

    beta r_j^(m+1) - 2 pi i (theta_(m+1) E_m n)_j
        = (beta r_j^m - 2 pi i (theta_m n)_j) / D_m[j, j],

so embedding a word as (D_m p, E_m n, D_m q) does not change its psi value;
``consistency_residual`` measures exactly that invariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .scenario import Scenario
from .subinvariance import BlockParams, nu_from_mu
from .toeplitz_algebra import AlgebraElement, Word
from .torus_measure import (
    AtomicMeasure,
    MultipliedMeasure,
    TorusMeasure,
    UniformMeasure,
    index_box,
    pushforward_dual,
    reduce_mod_1,
)

__all__ = [
    "TopLevel",
    "IncompatibleThread",
    "InvalidThread",
    "LevelConstants",
    "SolenoidMeasureThread",
    "level_constants",
    "embed_word",
    "embed_element",
    "build_thread",
    "thread_from_json",
    "sigma_map",
    "psi_eval",
    "psi_eval_element",
    "consistency_residual",
    "preimage_points",
    "validate_thread",
    "normalized_nu",
]

TWO_PI_I = 2j * np.pi

COMPAT_TOL = 1e-12
COMPAT_RADIUS = 5
POINT_COMPAT_TOL = 1e-10


class TopLevel(Exception):
    """The operation needs a level above the top of the finite tower."""


class IncompatibleThread(Exception):
    """Supplied thread data violate the pushforward compatibility relations."""


class InvalidThread(Exception):
    """A thread does not match its scenario (depth or dimensions)."""


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
    """A scenario together with per-level probability measures mu_1..mu_M."""

    scenario: Scenario
    measures: Tuple[TorusMeasure, ...]

    def __post_init__(self):
        object.__setattr__(self, "measures", tuple(self.measures))
        if len(self.measures) != self.scenario.depth:
            raise InvalidThread("thread needs one measure per scenario level")
        for mu in self.measures:
            if mu.d != self.scenario.dims.d:
                raise InvalidThread("thread measure dimension does not match the scenario")

    def measure(self, m: int) -> TorusMeasure:
        if not 1 <= m <= self.scenario.depth:
            raise InvalidThread(f"level {m} outside 1..{self.scenario.depth}")
        return self.measures[m - 1]


def embed_word(w: Word, scenario: Scenario) -> Word:
    """The level-(m+1) image (D_m p, E_m n, D_m q) of a level-m word."""
    m = w.level
    if m >= scenario.depth:
        raise TopLevel(f"level {m} word cannot embed beyond depth {scenario.depth}")
    lvl = scenario.level(m)
    p = lvl.D * np.asarray(w.p, dtype=np.int64)
    q = lvl.D * np.asarray(w.q, dtype=np.int64)
    n = lvl.E @ np.asarray(w.n, dtype=np.int64)
    return Word(p=p, n=n, q=q, level=m + 1)


def embed_element(a: AlgebraElement, scenario: Scenario) -> AlgebraElement:
    """Linear extension of embed_word; a unital *-homomorphism onto its image."""
    terms = {embed_word(w, scenario): c for w, c in a.terms.items()}
    return AlgebraElement(a.level + 1, terms)


def _canonical_point_lift(y1, scenario: Scenario) -> List[np.ndarray]:
    """Point coordinates per level from y_1 via y_(m+1) = (E_m^T)^(-1) y_m mod 1."""
    points = [reduce_mod_1(np.atleast_1d(np.asarray(y1, dtype=float)))]
    for m in range(1, scenario.depth):
        E = scenario.level(m).E
        nxt = np.linalg.solve(E.T.astype(float), points[-1])
        points.append(reduce_mod_1(nxt))
    return points


def build_thread(
    scenario: Scenario,
    kind: str = "uniform",
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
        checked against E_m^T y_(m+1) = y_m mod 1 to 1e-10 (IncompatibleThread
        on failure), or ``y1`` gives the base point and each next level takes
        the canonical preimage (E_m^T)^(-1) y_m mod 1.  The full preimage set
        at each step is exposed by ``preimage_points``.
    kind="toplevel"
        ``toplevel`` is the level-M measure; lower levels are its successive
        dual pushforwards mu_m = pushforward of mu_(m+1) under E_m^T, which is
        compatible by construction.
    """
    d = scenario.dims.d
    if kind == "uniform":
        measures: List[TorusMeasure] = [UniformMeasure(d) for _ in range(scenario.depth)]
    elif kind == "point":
        if points is not None:
            pts = [reduce_mod_1(np.atleast_1d(np.asarray(p, dtype=float))) for p in points]
            if len(pts) != scenario.depth:
                raise InvalidThread("need one point per level")
            for m in range(1, scenario.depth):
                E = scenario.level(m).E
                image = reduce_mod_1(E.T.astype(float) @ pts[m])
                gap = np.abs(image - pts[m - 1])
                gap = np.minimum(gap, 1.0 - gap)  # distance on the torus
                if float(np.max(gap)) > POINT_COMPAT_TOL:
                    raise IncompatibleThread(
                        f"levels {m}->{m + 1}: E^T y_(m+1) = {image.tolist()} "
                        f"differs from y_m = {pts[m - 1].tolist()}"
                    )
        elif y1 is not None:
            pts = _canonical_point_lift(y1, scenario)
        else:
            raise ValueError('kind="point" needs either points or y1')
        measures = [AtomicMeasure.point_mass(p) for p in pts]
    elif kind == "toplevel":
        if toplevel is None:
            raise ValueError('kind="toplevel" needs the toplevel measure')
        if toplevel.d != d:
            raise InvalidThread("toplevel measure dimension does not match the scenario")
        if abs(toplevel.total_mass() - 1.0) > 1e-10:
            raise InvalidThread("toplevel measure must be a probability measure")
        measures = [toplevel]
        for m in range(scenario.depth - 1, 0, -1):
            measures.append(pushforward_dual(measures[-1], scenario.level(m).E))
        measures.reverse()
    else:
        raise ValueError(f'unknown thread kind {kind!r}')
    return SolenoidMeasureThread(scenario=scenario, measures=tuple(measures))


def thread_from_json(obj, scenario: Scenario) -> SolenoidMeasureThread:
    """Load a thread from {"kind": .., "y1": .., "points": .., "toplevel_measure": ..}."""
    import json

    from .torus_measure import atomic_from_json

    if hasattr(obj, "read"):
        obj = json.load(obj)
    elif isinstance(obj, (str, bytes)):
        obj = json.loads(obj)
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError('thread JSON must be an object with a "kind" field')
    kind = obj["kind"]
    if kind == "uniform":
        return build_thread(scenario, kind="uniform")
    if kind == "point":
        if "points" in obj and obj["points"] is not None:
            return build_thread(scenario, kind="point", points=obj["points"])
        return build_thread(scenario, kind="point", y1=obj["y1"])
    if kind == "toplevel":
        return build_thread(
            scenario, kind="toplevel", toplevel=atomic_from_json(obj["toplevel_measure"])
        )
    raise ValueError(f"unknown thread kind {kind!r}")


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


def sigma_map(nu_next: TorusMeasure, scenario: Scenario, m: int) -> TorusMeasure:
    """Normalized pushforward sigma_m(nu) = (det D_m)^(-1) * (E_m^T pushforward of nu).

    Intertwines the Laplace averages of consecutive thread levels: for a
    compatible thread, sigma_m applied to nu_from_mu(mu_(m+1)) at the level
    m+1 block equals nu_from_mu(mu_m) at the level m block.
    """
    if not 1 <= m < scenario.depth:
        raise TopLevel(f"sigma map needs 1 <= m < depth, got m={m}")
    lvl = scenario.level(m)
    det_d = float(lvl.det_D())
    pushed = pushforward_dual(nu_next, lvl.E)
    return MultipliedMeasure(pushed, lambda N, c=det_d: 1.0 / c, tag=f"sigma_{m}")


def normalized_nu(thread: SolenoidMeasureThread, m: int) -> TorusMeasure:
    """The probability measure nu_m = c_m * nu_from_mu(mu_m) of thread level m."""
    params = BlockParams.at_level(thread.scenario, m)
    nu = nu_from_mu(thread.measure(m), params, check=False)
    c_m = params.mass_factor()
    return MultipliedMeasure(nu, lambda N, c=c_m: c, tag=f"normalize(c_{m})")


def psi_eval(thread: SolenoidMeasureThread, w: Word) -> complex:
    """Value of the thread's solenoid state on a single spanning word.

    psi(V_p U_n V*_q at m) = [p == q] e^(-beta p.r^m) * prod_j beta r_j^m /
    (beta r_j^m - 2 pi i (theta_m n)_j) * moment(mu_m, n).  Raises
    InvalidThread when the word's level exceeds the thread's depth.
    """
    scen = thread.scenario
    if not 1 <= w.level <= scen.depth:
        raise InvalidThread(f"word level {w.level} outside thread depth {scen.depth}")
    if w.p != w.q:
        return 0j
    lvl = scen.level(w.level)
    beta = scen.beta
    n = np.asarray(w.n, dtype=np.int64)
    gap = float(np.asarray(w.p, dtype=np.int64) @ lvl.r)
    t = lvl.theta @ n.astype(float)
    factors = (beta * lvl.r) / (beta * lvl.r - TWO_PI_I * t)
    return complex(
        np.exp(-beta * gap) * np.prod(factors) * thread.measure(w.level).moment(n)
    )


def psi_eval_element(thread: SolenoidMeasureThread, a: AlgebraElement) -> complex:
    """Linear extension of psi_eval to algebra elements."""
    return complex(sum(c * psi_eval(thread, w) for w, c in a.terms.items()))


def consistency_residual(thread: SolenoidMeasureThread, w: Word) -> float:
    """|psi(embedded word) - psi(word)|; zero for compatible threads.

    The level relations telescope the linear factors and the thread relation
    matches the moments, so the embedding preserves psi exactly.
    """
    if w.level >= thread.scenario.depth:
        raise TopLevel(f"word at level {w.level} has no next level in depth "
                       f"{thread.scenario.depth}")
    return abs(psi_eval(thread, embed_word(w, thread.scenario)) - psi_eval(thread, w))


def preimage_points(y, E) -> np.ndarray:
    """All det(E) preimages of y under x -> E^T x mod 1, one per lattice coset.

    Enumerates integer offsets z over the bounding box of E^T [0,1)^d, solves
    E^T x = y + z, and deduplicates mod 1.  The number of distinct solutions
    equals |det E|.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
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
        if not any(_torus_close(x, other) for other in found):
            found.append(x)
    if len(found) != det:
        raise ArithmeticError(
            f"found {len(found)} preimages, expected |det E| = {det}"
        )
    return np.asarray(sorted(found, key=lambda v: tuple(np.round(v, 12))))


def _torus_close(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    gap = np.abs(a - b)
    return bool(np.max(np.minimum(gap, 1.0 - gap)) <= tol)
