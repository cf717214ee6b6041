"""Per-layer spans and counts, recorded from outside the package.

``Recorder.install`` replaces public functions of ``toruskms.*`` with timing
wrappers at every place they are looked up: the defining module, each module
that imported the name, and the package root.  ``moment`` is wrapped on each
measure class, and each check of ``suites.CHECKS`` is wrapped in place.  No
file of the package is edited; ``uninstall`` restores every original.

A span's self time is its duration minus the time of its child spans on the
same thread.  Checks run on the suite's thread pool, so each span records its
thread id; a span opened on a pool thread with nothing open on that thread
takes as parent the innermost span open on the main thread (``run_checks``).
``moment`` runs hundreds of thousands of times per report, so its calls are
summed per operation instead of kept one by one; every other span is kept in
memory and written as JSON Lines when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, layer name) of every wrapped function.
FUNCTIONS = (
    ("toruskms.torus_measure", "moment_table", "torus_measure.moment_table"),
    ("toruskms.torus_measure", "positivity_test", "torus_measure.positivity_test"),
    ("toruskms.subinvariance", "defect_measure_cts", "subinvariance.defect_measure_cts"),
    ("toruskms.subinvariance", "nu_from_mu", "subinvariance.nu_from_mu"),
    ("toruskms.subinvariance", "numeric_limit_mu", "subinvariance.numeric_limit_mu"),
    ("toruskms.toeplitz_algebra", "multiply", "toeplitz_algebra.multiply"),
    ("toruskms.toeplitz_algebra", "state_eval", "toeplitz_algebra.state_eval"),
    ("toruskms.toeplitz_algebra", "apply_dynamics", "toeplitz_algebra.apply_dynamics"),
    ("toruskms.toeplitz_algebra", "adjoint", "toeplitz_algebra.adjoint"),
    ("toruskms.solenoid_limit", "psi_eval", "solenoid_limit.psi_eval"),
    ("toruskms.solenoid_limit", "consistency_residual", "solenoid_limit.consistency_residual"),
    ("toruskms.solenoid_limit", "validate_thread", "solenoid_limit.validate_thread"),
    ("toruskms.oracle", "laplace_quadrature", "oracle.laplace_quadrature"),
    ("toruskms.oracle", "fock_state_eval", "oracle.fock_state_eval"),
    ("toruskms.oracle", "fock_element_matrix", "oracle.fock_element_matrix"),
    ("toruskms.oracle", "truncated_inverse_moment", "oracle.truncated_inverse_moment"),
    ("toruskms.scenario", "scenario_from_json", "scenario.scenario_from_json"),
    ("toruskms.scenario", "validate_scenario", "scenario.validate_scenario"),
    ("toruskms.suites", "run_checks", "suites.run_checks"),
    ("toruskms.cli", "main", "cli.main"),
)

# moment is split by measure class; DefectMeasure inherits MultipliedMeasure's.
MOMENT_CLASSES = (
    ("AtomicMeasure", "Atomic"),
    ("UniformMeasure", "Uniform"),
    ("MultipliedMeasure", "Multiplied"),
    ("MappedIndexMeasure", "MappedIndex"),
)

CHECK_IDS = tuple(f"C{i:02d}" for i in range(1, 12))

# Published per-layer metrics: layer -> statistics, each a metric
# "<layer>.<statistic>" averaged per operation.  ``calls`` counts spans,
# ``wall_s`` sums span durations and ``cpu_s`` the CPU time of the span's own
# thread; ``self_s`` and ``self_cpu_s`` subtract the child spans from each.
# Any other statistic sums a counter the wrapper computes from the call's
# arguments.  Checks share the interpreter lock on the pool, so wall times of
# work inside a check include waiting for the other checks; CPU times are the
# work itself, and their difference is the wait.
SELF = ("self_s", "self_cpu_s")
OP_LAYERS = (
    *((f"torus_measure.moment.{label}", ("calls", *SELF)) for _, label in MOMENT_CLASSES),
    ("torus_measure.moment_table", ("calls", *SELF)),
    ("torus_measure.positivity_test", ("calls", *SELF, "matrix_entries", "grid_points")),
    ("subinvariance.defect_measure_cts", ("calls",)),
    ("subinvariance.nu_from_mu", ("calls",)),
    ("subinvariance.numeric_limit_mu", ("calls", *SELF)),
    ("toeplitz_algebra.multiply", ("calls", *SELF, "word_pairs")),
    ("toeplitz_algebra.state_eval", ("calls", *SELF)),
    ("toeplitz_algebra.apply_dynamics", ("calls", *SELF)),
    ("toeplitz_algebra.adjoint", ("calls", *SELF)),
    ("solenoid_limit.psi_eval", ("calls", *SELF)),
    ("solenoid_limit.consistency_residual", ("calls",)),
    ("oracle.laplace_quadrature", ("calls", *SELF)),
    ("oracle.fock_state_eval", ("calls", *SELF)),
    ("oracle.fock_element_matrix", ("calls", *SELF)),
    ("oracle.FockTruncation.for_params", ("calls", *SELF)),
    ("oracle.truncated_inverse_moment", ("calls", *SELF)),
    *((f"suites.{cid}", ("wall_s", "cpu_s")) for cid in CHECK_IDS),
    ("suites.run_checks", ("wall_s",)),
    ("cli.main", ("wall_s",)),
)

# Layers of the set-up, published per set-up rather than per operation.
SETUP_LAYERS = (
    ("solenoid_limit.validate_thread", ("self_s",)),
    ("scenario.scenario_from_json", ("self_s",)),
    ("scenario.validate_scenario", ("self_s",)),
)

# Whole-run ratios the benchmark adds to the layer metrics.
RATIOS = ("suites.worst_residual_ratio", "trace.overhead")

# Counters computed from the arguments, not measured inside the package.
COMPUTED_COUNTERS = (
    "torus_measure.positivity_test.matrix_entries",
    "torus_measure.positivity_test.grid_points",
    "toeplitz_algebra.multiply.word_pairs",
)


COUNT_STATS = ("calls", "matrix_entries", "grid_points", "word_pairs")


def metric_units() -> dict:
    """Every published per-layer metric name with its unit, in print order."""
    units = {}
    for layer, stats in OP_LAYERS + SETUP_LAYERS:
        for stat in stats:
            units[f"{layer}.{stat}"] = "count" if stat in COUNT_STATS else "s"
    units.update((name, "ratio") for name in RATIOS)
    return units


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _positivity_counters(args, kwargs):
    """Moment-matrix entries ((N+1)^d)^2 and Fejer grid points grid_n^d."""
    from toruskms import torus_measure

    lam = _arg(args, kwargs, 0, "lam")
    radius = int(_arg(args, kwargs, 3, "moment_radius", 5))
    grid_n = _arg(args, kwargs, 1, "grid_n")
    if grid_n is None:
        grid_n = torus_measure._DEFAULT_GRID.get(lam.d, max(2 * radius + 1, 16))
    return {
        "matrix_entries": ((radius + 1) ** lam.d) ** 2,
        "grid_points": int(grid_n) ** lam.d,
    }


def _multiply_counters(args, kwargs):
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    return {"word_pairs": len(a.terms) * len(b.terms)}


COUNTERS = {
    "torus_measure.positivity_test": _positivity_counters,
    "toeplitz_algebra.multiply": _multiply_counters,
}


class Recorder:
    """Collects spans of the wrapped layers; ``op`` labels the current operation.

    The benchmark issues one operation at a time, so every span opened while
    ``op`` holds a label belongs to that operation, on whatever thread.
    """

    def __init__(self):
        self.op = None
        # (op, id, parent, name, thread id, start, end, self_s, cpu_s, self_cpu_s, counters)
        self.spans = []
        # (op, name) -> [calls, self_s, self_cpu_s]
        self.moment_totals = defaultdict(lambda: [0, 0.0, 0.0])
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name, fn, counters=None, aggregate=False):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack()
            frame = [0.0, 0.0, next(rec._ids)]  # child wall, child CPU, span id
            if stack:
                parent = stack[-1][2]
            else:
                main = rec._main_stack
                parent = main[-1][2] if main and stack is not main else None
            stack.append(frame)
            cpu = time.thread_time()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                    stack[-1][1] += cpu
                self_s = end - start - frame[0]
                self_cpu = cpu - frame[1]
                if aggregate:
                    with rec._lock:
                        total = rec.moment_totals[(rec.op, name)]
                        total[0] += 1
                        total[1] += self_s
                        total[2] += self_cpu
                else:
                    extra = counters(args, kwargs) if counters else None
                    rec.spans.append(
                        (rec.op, frame[2], parent, name, threading.get_ident(),
                         start, end, self_s, cpu, self_cpu, extra)
                    )

        return wrapper

    def _replace_everywhere(self, original, replacement):
        for modname, module in list(sys.modules.items()):
            if modname != "toruskms" and not modname.startswith("toruskms."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append((module, key, original))

    def install(self) -> None:
        import toruskms
        from toruskms import oracle, suites, torus_measure

        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            self._replace_everywhere(original, self._timed(name, original, COUNTERS.get(name)))
        for clsname, label in MOMENT_CLASSES:
            cls = getattr(torus_measure, clsname)
            original = cls.__dict__["moment"]
            wrapped = self._timed(f"torus_measure.moment.{label}", original, aggregate=True)
            setattr(cls, "moment", wrapped)
            self._undo.append((cls, "moment", original))
        truncation = oracle.FockTruncation
        original = truncation.__dict__["for_params"]
        wrapped = self._timed("oracle.FockTruncation.for_params", original.__func__)
        setattr(truncation, "for_params", classmethod(wrapped))
        self._undo.append((truncation, "for_params", original))
        checks = tuple(
            (cid, title, self._timed(f"suites.{cid}", fn)) for cid, title, fn in suites.CHECKS
        )
        self._replace_everywhere(suites.CHECKS, checks)
        if toruskms.CHECKS is not checks:
            raise RuntimeError("the package root still holds the unwrapped checks")

    def uninstall(self) -> None:
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def _per_op(self, ops):
        """op -> {metric name: value} summed over that operation's spans."""
        table = {op: defaultdict(float) for op in ops}
        for op, _id, _parent, name, _tid, start, end, self_s, cpu, self_cpu, extra in self.spans:
            if op not in table:
                continue
            row = table[op]
            row[f"{name}.calls"] += 1
            row[f"{name}.self_s"] += self_s
            row[f"{name}.self_cpu_s"] += self_cpu
            row[f"{name}.wall_s"] += end - start
            row[f"{name}.cpu_s"] += cpu
            for key, value in (extra or {}).items():
                row[f"{name}.{key}"] += value
        for (op, name), (calls, self_s, self_cpu) in self.moment_totals.items():
            if op in table:
                table[op][f"{name}.calls"] += calls
                table[op][f"{name}.self_s"] += self_s
                table[op][f"{name}.self_cpu_s"] += self_cpu
        return table

    def layer_metrics(self, ops, setup_op):
        """Published metrics: per-operation means over ``ops``, set-up layers from ``setup_op``."""
        per_op = self._per_op(list(ops) + [setup_op])
        out = {}
        for layer, stats in OP_LAYERS:
            for stat in stats:
                key = f"{layer}.{stat}"
                out[key] = sum(per_op[op][key] for op in ops) / len(ops)
        for layer, stats in SETUP_LAYERS:
            for stat in stats:
                key = f"{layer}.{stat}"
                out[key] = per_op[setup_op][key]
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                op, span_id, parent, name, tid, start, end, self_s, cpu, self_cpu, extra = span
                record = {
                    "op": op, "id": span_id, "parent": parent, "name": name, "thread": tid,
                    "start": start, "end": end, "self_s": self_s, "cpu_s": cpu,
                    "self_cpu_s": self_cpu,
                }
                if extra:
                    record["computed"] = extra
                fh.write(json.dumps(record) + "\n")
            for (op, name), (calls, self_s, self_cpu) in self.moment_totals.items():
                record = {
                    "op": op, "name": name, "calls": calls, "self_s": self_s,
                    "self_cpu_s": self_cpu,
                }
                fh.write(json.dumps(record) + "\n")
