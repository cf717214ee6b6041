"""The operations a workload issues, each with its own correctness check.

An operation is prepared outside the timed region and returns a pair
``(call, check)``: the benchmark times ``call()`` alone, then passes its
result to ``check``, which returns ``(ok, digest)``.  ``digest`` identifies
the operation's output bytes, so repeats of one input can be compared.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Layer functions are looked up on the package at call time, never bound
# here, so the tracing wrappers installed on the package see every call.
import toruskms as tk
import toruskms.cli

from workloads import MIN_REPORT_ARGS


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class ReportOps:
    """`toruskms report --format json` run in process, as a user would.

    Every operation repeats the same report (same tower, thread and seed), so
    every digest of one run must be equal.  The operation fails unless the
    command exits 0 and the report's ``overall_pass`` is true.
    """

    def __init__(self, spec: dict, seed: int, out_path: Path, min_size: bool = False):
        self.out_path = out_path
        base = ["report", "--scenario", spec["scenario"]]
        if spec["thread"] is not None:
            base += ["--thread", spec["thread"]]
        base += ["--format", "json", "--seed", str(seed), "--out", str(out_path)]
        self.argv = base + list(MIN_REPORT_ARGS if min_size else spec["report_args"])
        self.warmup_argv = base + list(MIN_REPORT_ARGS)
        self.settings = {"argv": self.argv}
        self.worst_residual_ratio = 0.0

    def warm_up(self) -> None:
        toruskms.cli.main(self.warmup_argv)

    def prepare(self, index: int):
        argv = self.argv
        return (lambda: toruskms.cli.main(argv)), self._check

    def digest_key(self, index: int) -> int:
        return 0

    def _check(self, exit_code):
        """Exit 0, overall_pass true; tracks max residual / bound over rows with bound > 0."""
        if exit_code != 0:
            return False, None
        data = self.out_path.read_bytes()
        report = json.loads(data)
        ratios = [row["residual"] / row["bound"] for row in report["checks"] if row["bound"] > 0]
        self.worst_residual_ratio = max([self.worst_residual_ratio, *ratios])
        return report.get("overall_pass") is True, _sha256(data)


class QueryOps:
    """Library-level point queries on one tower, drawn from a seeded mix.

    Each query computes a closed-form value and, in the same timed call, the
    independent quadrature value it must match within ``tol`` (the
    ``state --oracle`` route).  The k-th query of a seed is always the same,
    so its digest (of the closed-form value's bytes) repeats across runs.
    """

    def __init__(self, spec: dict, scenario, thread, seed: int):
        self.scenario = scenario
        self.thread = thread
        self.seed = seed
        self.tol = spec["tol"]
        self.table_radius = spec["table_radius"]
        kinds = sorted(spec["query_mix"])
        weights = np.asarray([spec["query_mix"][k] for k in kinds], dtype=float)
        self.kinds = kinds
        self.weights = weights / weights.sum()
        self.settings = {
            "query_mix": dict(spec["query_mix"]),
            "table_radius": self.table_radius,
            "tol": self.tol,
        }
        self.worst_residual_ratio = 0.0  # no suite rows in this workload
        self.params = [tk.BlockParams.at_level(scenario, m) for m in range(1, scenario.depth + 1)]
        self.c = tk.level_constants(scenario).c
        self.nu = [tk.normalized_nu(thread, m) for m in range(1, scenario.depth + 1)]
        self._builders = {
            "psi_eval": self._psi_eval,
            "state_eval": self._state_eval,
            "moment_chain": self._moment_chain,
            "moment_table": self._moment_table,
        }

    def warm_up(self) -> None:
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 1)))
        for kind in self.kinds:
            call, check = self._builders[kind](rng)
            check(call())

    def prepare(self, index: int):
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, 0, index)))
        kind = self.kinds[int(rng.choice(len(self.kinds), p=self.weights))]
        return self._builders[kind](rng)

    def digest_key(self, index: int) -> int:
        return index

    # -- query kinds ------------------------------------------------------

    def _level(self, rng) -> int:
        return int(rng.integers(1, self.scenario.depth + 1))

    def _word(self, rng, m: int) -> tk.Word:
        k, d = self.scenario.dims.k, self.scenario.dims.d
        p = rng.integers(0, 3, size=k)
        q = p if rng.random() < 0.75 else rng.integers(0, 3, size=k)
        return tk.Word(p=p, n=rng.integers(-4, 5, size=d), q=q, level=m)

    def _oracle_word(self, w: tk.Word) -> complex:
        """psi of one word by quadrature, as `toruskms state --oracle` computes it."""
        if w.p != w.q:
            return 0j
        params = self.params[w.level - 1]
        weight = float(np.exp(-self.scenario.beta * np.asarray(w.p, dtype=float) @ params.r))
        mu = self.thread.measure(w.level)
        return weight * self.c[w.level - 1] * tk.laplace_quadrature(mu, params, np.asarray(w.n))

    def _pair_check(self, result):
        closed, oracle = result
        closed = np.atleast_1d(np.asarray(closed, dtype=complex))
        oracle = np.atleast_1d(np.asarray(oracle, dtype=complex))
        ok = bool(np.all(np.abs(closed - oracle) <= self.tol))
        return ok, _sha256(closed.tobytes())

    def _psi_eval(self, rng):
        w = self._word(rng, self._level(rng))
        return (lambda: (tk.psi_eval(self.thread, w), self._oracle_word(w))), self._pair_check

    def _state_eval(self, rng):
        m = self._level(rng)
        terms = {}
        for _ in range(2):
            w = self._word(rng, m)
            terms[w] = terms.get(w, 0j) + complex(rng.normal(), rng.normal())
        a = tk.AlgebraElement(m, terms)

        def call():
            closed = tk.state_eval(self.nu[m - 1], self.params[m - 1], a)
            return closed, sum(c * self._oracle_word(w) for w, c in a.terms.items())

        return call, self._pair_check

    def _moment_chain(self, rng):
        """nu_from_mu followed by one or two round trips, so the moment is nu's."""
        m = self._level(rng)
        n = rng.integers(-4, 5, size=self.scenario.dims.d)
        trips = [
            "geometric" if rng.random() < 0.5 else "laplace" for _ in range(rng.integers(1, 3))
        ]
        params, mu = self.params[m - 1], self.thread.measure(m)

        def call():
            measure = tk.nu_from_mu(mu, params, check=False)
            for trip in trips:
                if trip == "geometric":
                    measure = tk.nu_from_kappa(tk.kappa_from_nu(measure, params), params)
                else:
                    back = tk.mu_from_nu(measure, params, check=False)
                    measure = tk.nu_from_mu(back, params, check=False)
            return measure.moment(n), tk.laplace_quadrature(mu, params, n)

        return call, self._pair_check

    def _moment_table(self, rng):
        m = self._level(rng)
        radius = self.table_radius
        params, mu, c_m = self.params[m - 1], self.thread.measure(m), self.c[m - 1]
        box = [np.asarray(idx) - radius for idx in np.ndindex((2 * radius + 1,) * params.d)]

        def call():
            table = tk.moment_table(self.nu[m - 1], radius)
            oracle = [c_m * tk.laplace_quadrature(mu, params, n) for n in box]
            return table.ravel(), oracle

        return call, self._pair_check
