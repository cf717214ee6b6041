"""The toruskms benchmark: one workload, one closed-loop run, one JSON result.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--min-size]

Run it from anywhere inside a checkout; it works in the checkout's root and
imports the package from the checkout's ``src``.  The load generator is one
thread in a closed loop: it issues the next operation only after the previous
one returned, like a user waiting on a result.  Workloads are listed in
``workloads.py``.  BLAS is held to one thread (see BLAS_THREADS); the
suite's own 4-worker pool runs as it is.

--trace 0 measures the end-to-end metrics.  --trace 1 spends half of the
seconds untraced and half with every layer wrapped (``tracing.py``), and
prints the per-layer metrics; the spans go to ``.perfbench_out/`` as JSON
Lines.  --min-size swaps in tiny report settings (used by the smoke
test, ``smoke.py``).

Lines starting with "#" are a human-readable summary; the last line of
standard output is the result object {"correct", "attempted", "failed",
"metrics"}.  The exit code is 0 when a result is printed, 1 when the
workload's inputs fail set-up, and 2 when the checkout has no package source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import ROOT, WORKLOADS, SetupError, load_inputs, use_source_tree

# BLAS runs single-threaded, in this process and in the set-up probes.  On a
# 2-CPU machine that the suite's 4-thread pool already fills, OpenBLAS's
# spin-waiting worker threads made command_cpu_s of report-cubic 1.75x its
# wall time and spread it by 18% between runs; with one thread it spreads 1%.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

OUT_DIR = Path(".perfbench_out")  # under the checkout root, the working directory
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60


class Tally:
    """Per-operation samples of one closed-loop phase."""

    def __init__(self):
        self.wall = []
        self.cpu = []
        self.failed = 0
        self.labels = []

    @property
    def attempted(self) -> int:
        return len(self.wall)


def closed_loop(ops, seconds: float, expected: dict, phase: str, recorder=None) -> Tally:
    """Issue operations back to back for ``seconds`` (at least one operation).

    An operation fails when it raises, when its own check fails, or when its
    digest differs from the one first recorded under its key in ``expected``.
    """
    tally = Tally()
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        call, check = ops.prepare(index)
        label = f"{phase}:{index}"
        if recorder is not None:
            recorder.op = label
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = call()
        except Exception:
            result = None
            error = traceback.format_exc()
        else:
            error = None
        cpu1, wall1 = time.process_time(), time.perf_counter()
        if recorder is not None:
            recorder.op = None
        ok = False
        if error is None:
            try:
                ok, digest = check(result)
            except Exception:
                error = traceback.format_exc()
            else:
                key = ops.digest_key(index)
                if digest is not None and expected.setdefault(key, digest) != digest:
                    ok = False
                    error = f"digest {digest} differs from {expected[key]} for the same input"
        if not ok:
            tally.failed += 1
            if tally.failed <= 3:
                sys.stderr.write(f"{label} failed{': ' + error if error else ''}\n")
        tally.wall.append(wall1 - wall0)
        tally.cpu.append(cpu1 - cpu0)
        tally.labels.append(label)
        index += 1
        if wall1 >= deadline:
            return tally


def tail(samples):
    """(value, percentile, samples beyond) of the tail rule.

    The tail is the highest percentile with at least ten samples beyond it,
    but never below the 90th: with fewer than 100 samples it is the 90th
    percentile (nearest rank), and the count beyond it says how well it is
    supported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    q = max(0.9, 1.0 - 10.0 / n)
    rank = max(1, math.ceil(q * n - 1e-9))
    return ordered[rank - 1], 100.0 * q, n - rank


def setup_probes(workload: str, count: int):
    """Set-up times of ``count`` fresh processes (after one uncounted probe)."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    times = []
    # the first probe also writes bytecode caches in a fresh checkout; not counted
    for i in range(count + 1):
        done = subprocess.run(
            [sys.executable, str(probe), workload],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()}")
        if i > 0:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def combined_digest(expected: dict, count: int = 64) -> str:
    """One digest for the first ``count`` operation keys of a run."""
    keys = sorted(expected)[:count]
    if len(keys) == 1:
        return f"sha256={expected[keys[0]]}"
    joined = "".join(expected[key] for key in keys).encode()
    return f"ops=0..{keys[-1]} sha256={hashlib.sha256(joined).hexdigest()}"


def _commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def metadata(args, ops) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "min_size": args.min_size,
        "commit": _commit(),
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "settings": ops.settings,
        "blas_threads": BLAS_THREADS,
        "load": "closed loop, one client thread",
    }


def _line(text: str) -> None:
    print(f"# {text}")


def end_to_end(args, tally: Tally, setup_times) -> dict:
    tail_s, tail_q, beyond = tail(tally.wall)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "command_s": (statistics.median(tally.wall), "s"),
        "command_tail_s": (tail_s, "s"),
        "command_cpu_s": (statistics.median(tally.cpu), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    fail_share = tally.failed / tally.attempted
    _line(f"setup_s {metrics['setup_s'][0]:.6f} s (median of {len(setup_times)} fresh-process set-ups)")
    _line(f"command_s {metrics['command_s'][0]:.6f} s (median of {tally.attempted} operations)")
    _line(
        f"command_tail_s {tail_s:.6f} s (p{tail_q:.3f} of {tally.attempted} operations, "
        f"{beyond} beyond it)"
    )
    _line(f"command_cpu_s {metrics['command_cpu_s'][0]:.6f} s (median process CPU per operation)")
    _line(f"peak_rss_mb {rss_mb:.3f} MB")
    _line(f"fail_share {fail_share:.6f} ({tally.failed} of {tally.attempted} operations failed)")
    return metrics


def per_layer(recorder, ops, untraced: Tally, traced: Tally) -> dict:
    import tracing

    values = recorder.layer_metrics(traced.labels, "setup")
    values["suites.worst_residual_ratio"] = ops.worst_residual_ratio
    values["trace.overhead"] = statistics.median(traced.wall) / statistics.median(untraced.wall)
    metrics = {name: (values[name], unit) for name, unit in tracing.metric_units().items()}
    checks = {cid: values[f"suites.{cid}.cpu_s"] for cid in tracing.CHECK_IDS}
    largest = max(checks, key=checks.get) if any(checks.values()) else "none (no checks ran)"
    _line(
        f"traced {traced.attempted} operations, untraced {untraced.attempted}; "
        f"trace.overhead {values['trace.overhead']:.4f}"
    )
    _line("check cpu_s per operation: " + ", ".join(f"{c} {t:.4f}" for c, t in checks.items()))
    _line(f"largest check by CPU time: {largest}")
    _line("computed counters (from arguments): " + ", ".join(tracing.COMPUTED_COUNTERS))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-size", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    spec = WORKLOADS[args.workload]
    try:
        use_source_tree()
    except SetupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    os.chdir(ROOT)
    OUT_DIR.mkdir(exist_ok=True)
    # before numpy is first imported (by ``ops``) and before the probes start
    os.environ.update((var, BLAS_THREADS) for var in BLAS_THREAD_VARS)

    try:
        setup_times = [] if args.trace else setup_probes(
            args.workload, 1 if args.min_size else SETUP_PROBES)
        import ops as ops_module

        scenario, thread = load_inputs(spec)
    except SetupError as exc:
        sys.stderr.write(f"{args.workload}: set-up failed, workload aborted: {exc}\n")
        return 1
    if spec["kind"] == "report":
        out_path = OUT_DIR / f"{args.workload}.json"
        ops = ops_module.ReportOps(spec, args.seed, out_path, args.min_size)
    else:
        ops = ops_module.QueryOps(spec, scenario, thread, args.seed)
    ops.warm_up()

    expected = {}
    if args.trace == 0:
        tally = closed_loop(ops, args.seconds, expected, "run")
        attempted, failed = tally.attempted, tally.failed
        metrics = end_to_end(args, tally, setup_times)
    else:
        import tracing

        untraced = closed_loop(ops, args.seconds / 2, expected, "untraced")
        recorder = tracing.Recorder()
        recorder.install()
        try:
            recorder.op = "setup"
            load_inputs(spec)
            recorder.op = None
            traced = closed_loop(ops, args.seconds / 2, expected, "traced", recorder)
        finally:
            recorder.uninstall()
        recorder.write_jsonl(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
        metrics = per_layer(recorder, ops, untraced, traced)
    _line(f"digest {args.workload} seed={args.seed} {combined_digest(expected)}")
    _line("meta " + json.dumps(metadata(args, ops), sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
