"""Scenario data: dimensions, inverse temperature, and compatible level towers.

A scenario fixes a dimension pair (d, k), an inverse temperature beta > 0, and
a finite tower of levels m = 1..M.  Each level carries a nonnegative k x d
rotation matrix theta_m, a diagonal integer matrix D_m (entries >= 2), an
integer matrix E_m with det E_m >= 2, and a positive weight vector r^m.  The
matrices of level m connect it to level m+1 through the exact relations

    D_m theta_{m+1} E_m = theta_m     (entrywise, in real arithmetic),
    D_m r^{m+1} = r^m,

which hold as equalities of real numbers, never merely mod Z.  The relations
are what make the level embeddings of the word algebra multiplicative and the
state values level-independent, so validation treats a mod-Z-only match as a
violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "ConstraintViolation",
    "Dimensions",
    "LevelData",
    "Scenario",
    "derive_next_level",
    "derive_levels",
    "validate_scenario",
    "scenario_from_json",
    "scenario_to_json",
]

# Entries of a derived theta in [-RELATION_TOL, 0) are rounding debris and
# are clamped to zero; anything more negative is a genuine violation.
RELATION_TOL = 1e-12


class ConstraintViolation(ValueError):
    """Input that parses but breaks a structural constraint of a tower, a thread or a block."""


@dataclass(frozen=True)
class Dimensions:
    """Torus dimension d and isometry rank k, both >= 1."""

    d: int
    k: int

    def __post_init__(self):
        if int(self.d) < 1 or int(self.k) < 1:
            raise ValueError("dimensions d and k must be >= 1")
        object.__setattr__(self, "d", int(self.d))
        object.__setattr__(self, "k", int(self.k))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LevelData:
    """One level of the tower.

    theta : (k, d) float array, entries >= 0
    D     : (k,) int array, the diagonal of the k x k matrix, entries >= 2
    E     : (d, d) int array, det E >= 2
    r     : (k,) float array, entries > 0
    """

    theta: np.ndarray
    D: np.ndarray
    E: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        theta = np.atleast_2d(np.asarray(self.theta, dtype=float))
        D = np.atleast_1d(np.asarray(self.D))
        E = np.atleast_2d(np.asarray(self.E))
        r = np.atleast_1d(np.asarray(self.r, dtype=float))
        k, d = theta.shape
        if D.shape != (k,) or E.shape != (d, d) or r.shape != (k,):
            raise ValueError("level data shapes are inconsistent")
        D, E = np.asarray(D, dtype=float), np.asarray(E, dtype=float)
        # written so that a NaN or an infinity fails the gate, without a warning
        with np.errstate(invalid="ignore"):
            if not np.max(np.abs(D - np.rint(D))) <= 1e-9:
                raise ValueError("D must have integer diagonal entries")
            if not np.max(np.abs(E - np.rint(E))) <= 1e-9:
                raise ValueError("E must be an integer matrix")
        object.__setattr__(self, "theta", _freeze(theta))
        object.__setattr__(self, "D", _freeze(np.rint(D).astype(np.int64)))
        object.__setattr__(self, "E", _freeze(np.rint(E).astype(np.int64)))
        object.__setattr__(self, "r", _freeze(r))

    @property
    def k(self) -> int:
        return self.theta.shape[0]

    @property
    def d(self) -> int:
        return self.theta.shape[1]

    def det_D(self) -> int:
        return int(np.prod(self.D))

    def det_E(self) -> int:
        return int(round(float(np.linalg.det(self.E.astype(float)))))

    def violations(self) -> List[str]:
        """Static validity violations of this single level."""
        out = []
        if not np.all(np.isfinite(self.theta)):
            out.append(f"theta has a non-finite entry: {self.theta.tolist()}")
        if not np.all(np.isfinite(self.r)):
            out.append(f"r has a non-finite entry: {self.r.tolist()}")
        if np.any(self.D < 2):
            out.append(f"D has a diagonal entry < 2: {self.D.tolist()}")
        if self.det_E() < 2:
            out.append(f"det E = {self.det_E()} < 2")
        if np.any(self.theta < 0):
            out.append(f"theta has a negative entry: min {float(np.min(self.theta)):.3e}")
        if np.any(self.r <= 0):
            out.append(f"r has a nonpositive entry: {self.r.tolist()}")
        return out


@dataclass(frozen=True)
class Scenario:
    """Dimension pair, inverse temperature, and the level tower m = 1..M."""

    dims: Dimensions
    beta: float
    levels: Tuple[LevelData, ...]

    def __post_init__(self):
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("scenario needs at least one level")
        for lvl in self.levels:
            if lvl.k != self.dims.k or lvl.d != self.dims.d:
                raise ValueError("level shapes do not match the scenario dimensions")

    @property
    def depth(self) -> int:
        return len(self.levels)

    def level(self, m: int) -> LevelData:
        """Level data for 1-based level index m."""
        if not 1 <= m <= self.depth:
            raise ValueError(f"level {m} outside 1..{self.depth}")
        return self.levels[m - 1]


def derive_next_level(current: LevelData, next_D, next_E) -> LevelData:
    """Derive level m+1 from level m using the exact relations.

    theta_{m+1} = D_m^{-1} theta_m E_m^{-1} and r^{m+1} = D_m^{-1} r^m, both in
    real arithmetic with no mod-Z reduction.  next_D / next_E become the
    derived level's own matrices (they would connect it to a further level).

    Raises ConstraintViolation when next_E is singular or a derived theta
    entry falls below -1e-12; entries in [-1e-12, 0) are clamped to zero.
    """
    next_D = np.atleast_1d(np.asarray(next_D))
    next_E = np.atleast_2d(np.asarray(next_E))
    # a non-finite E has no determinant to read: LevelData below rejects it
    if np.all(np.isfinite(next_E)) and round(abs(float(np.linalg.det(next_E.astype(float))))) == 0:
        raise ConstraintViolation("next level's E matrix is singular")
    E_inv = np.linalg.inv(current.E.astype(float))
    theta_next = (current.theta / current.D[:, None].astype(float)) @ E_inv
    if np.min(theta_next) < -RELATION_TOL:
        raise ConstraintViolation(
            f"derived theta has entry {float(np.min(theta_next)):.3e} < -{RELATION_TOL}"
        )
    theta_next = np.where((theta_next < 0) & (theta_next >= -RELATION_TOL), 0.0, theta_next)
    r_next = current.r / current.D.astype(float)
    return LevelData(theta=theta_next, D=next_D, E=next_E, r=r_next)


def derive_levels(theta1, r1, D_seq: Sequence, E_seq: Sequence) -> Tuple[LevelData, ...]:
    """Build the full tower from level-1 data and the D/E sequences.

    D_seq[m-1] and E_seq[m-1] are level m's matrices; the tower depth is
    M = len(D_seq) = len(E_seq), and levels 2..M are derived from level 1.
    """
    if len(D_seq) != len(E_seq) or not D_seq:
        raise ValueError("need equally many D and E matrices, at least one of each")
    levels = [LevelData(theta=theta1, D=D_seq[0], E=E_seq[0], r=r1)]
    for m in range(1, len(D_seq)):
        levels.append(derive_next_level(levels[-1], D_seq[m], E_seq[m]))
    return tuple(levels)


def validate_scenario(scenario: Scenario) -> List[str]:
    """Collect every violation of the scenario contract; never raises.

    Returns an empty list exactly when the scenario is valid: finite positive
    beta, per-level static constraints, and the two exact relations between
    consecutive levels to within the constant RELATION_TOL (absolute, real
    arithmetic).  A NaN relation defect is a violation.
    """
    report: List[str] = []
    if not 0 < scenario.beta < np.inf:
        report.append(f"beta = {scenario.beta} is not finite and positive")
    for m, lvl in enumerate(scenario.levels, start=1):
        report.extend(f"level {m}: {problem}" for problem in lvl.violations())
    for m in range(1, scenario.depth):
        lo = scenario.levels[m - 1]
        hi = scenario.levels[m]
        # an infinite theta or r makes a product inf * 0 or a defect inf - inf,
        # so NaN, a violation below
        with np.errstate(invalid="ignore"):
            lhs = lo.D[:, None].astype(float) * (hi.theta @ lo.E.astype(float))
            theta_defect = float(np.max(np.abs(lhs - lo.theta)))
            r_defect = float(np.max(np.abs(lo.D.astype(float) * hi.r - lo.r)))
        if not theta_defect <= RELATION_TOL:
            report.append(
                f"levels {m}->{m + 1}: D_m theta_(m+1) E_m differs from theta_m "
                f"by {theta_defect:.3e} (> {RELATION_TOL})"
            )
        if not r_defect <= RELATION_TOL:
            report.append(
                f"levels {m}->{m + 1}: D_m r^(m+1) differs from r^m "
                f"by {r_defect:.3e} (> {RELATION_TOL})"
            )
    return report


def scenario_from_json(obj: dict) -> Scenario:
    """Load a scenario from its parsed JSON description.

    Schema: {"d": int, "k": int, "beta": float, "mode": "derive"|"explicit",
    "theta1": [[float]], "r1": [float], "D": [[int diagonal]], "E": [[[int]]],
    "levels": [...]}.  In derive mode (the default) the tower depth is
    M = len(D) and levels 2..M follow from theta1/r1 by the exact relations.
    In explicit mode "levels" lists {"theta": [[float]], "r": [float]} per
    level, with D/E still taken from the top-level lists.
    """
    if not isinstance(obj, dict):
        raise ValueError("scenario JSON must be an object")
    # every field is read in here, so a missing or mistyped one is a ValueError
    try:
        dims = Dimensions(d=int(obj["d"]), k=int(obj["k"]))
        beta = float(obj["beta"])
        mode = obj.get("mode", "derive")
        D_seq = [np.asarray(Dm) for Dm in obj["D"]]
        E_seq = [np.asarray(Em) for Em in obj["E"]]
        if len(D_seq) != len(E_seq) or not D_seq:
            raise ValueError("scenario JSON needs equally many D and E entries, at least one")
        if mode == "derive":
            theta1 = np.asarray(obj["theta1"], dtype=float)
            r1 = np.asarray(obj["r1"], dtype=float)
            levels = derive_levels(theta1, r1, D_seq, E_seq)
        elif mode == "explicit":
            raw_levels = obj.get("levels")
            if not isinstance(raw_levels, list) or len(raw_levels) != len(D_seq):
                raise ValueError('explicit mode needs a "levels" list matching len(D)')
            levels = tuple(
                LevelData(
                    theta=np.asarray(lv["theta"], dtype=float),
                    D=D_seq[i],
                    E=E_seq[i],
                    r=np.asarray(lv["r"], dtype=float),
                )
                for i, lv in enumerate(raw_levels)
            )
        else:
            raise ValueError(f'mode must be "derive" or "explicit", got {mode!r}')
    except (KeyError, TypeError) as exc:
        raise ValueError(f"scenario JSON is missing or mistypes a field: {exc}") from exc
    return Scenario(dims=dims, beta=beta, levels=levels)


def scenario_to_json(scenario: Scenario) -> dict:
    """Serialize a scenario in explicit mode (round-trips through loading)."""
    return {
        "d": scenario.dims.d,
        "k": scenario.dims.k,
        "beta": scenario.beta,
        "mode": "explicit",
        "theta1": scenario.levels[0].theta.tolist(),
        "r1": scenario.levels[0].r.tolist(),
        "D": [lvl.D.tolist() for lvl in scenario.levels],
        "E": [lvl.E.tolist() for lvl in scenario.levels],
        "levels": [
            {"theta": lvl.theta.tolist(), "r": lvl.r.tolist()} for lvl in scenario.levels
        ],
    }
