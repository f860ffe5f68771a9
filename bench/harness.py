"""Closed-loop op runner, metric definitions and the environment stamp.

One client in one process runs a workload's ops back to back: the next op
starts only after the previous one and its correctness check finished.  Ops
are grouped in cycles, a fixed op list on fixed inputs, so every cycle repeats
the same work and per-cycle work counts repeat exactly.

The timing metrics are built from one time per op, summarized over the op's
repetitions in the run's cycles.  On a shared host the speed of the whole
machine drifts by up to 2x, in stretches from under a second to over a
minute.  Each workload names the summary that is steadiest for its ops (see
`OP_TIMES`).
"""

import ctypes
import glob
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Set-up is repeated in a timed run and setup_s is the median: at least
# SETUP_MIN_REPS times, and up to SETUP_MAX_REPS while SETUP_BUDGET_S lasts.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 7
SETUP_BUDGET_S = 3.0
# Up to this many failure messages are kept for the report.
FAILURE_SAMPLES = 5

# How a workload's `op_time` summarizes an op's repeated times.  "best" suits
# ops of about a millisecond: many repetitions land in the host's brief fast
# stretches, so the fastest tracks the cost of the code, not the drift.
# "median" suits ops of tenths of a second, longer than most fast stretches:
# their fastest time is luck, while their median is steady unless the drift
# spans the whole run.
OP_TIMES = {"best": min, "median": statistics.median}

# End-to-end metrics declared in BENCHMARK.json (timed runs, tracing off).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# Spans reported with both a call count and a self time.
COUNTED_SPANS = [
    "kmsvd.km_mapping",
    "kmsvd.tsvd",
    "spectral.complex_svd",
    "spectral.dft_mode3",
    "spectral.idft_mode3",
    "tprod.tprod",
    "tprod.random_orthogonal",
    "core.as_tensor",
    "core.transpose",
    "core.frobenius_norm",
    "fileio.read_tensor",
    "fileio.write_tensor",
]
SELF_TIME_SPANS = [
    "kmsvd.singular_values",
    "kmsvd.truncate_trank",
    "kmsvd.km_equal",
    "kmsvd.best_trank_one",
    "cli.main",
]
CLI_SUBCOMMANDS = ["tsvd", "rank", "approx", "verify", "tprod"]


def layer_metric_units():
    """Per-layer metric names and units reported by a traced run, in order."""
    units = {}
    for name in COUNTED_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_TIME_SPANS:
        units[f"{name}.self_s"] = "s"
    for name in ("spectral.dft_mode3", "spectral.idft_mode3"):
        units[f"{name}.bytes"] = "B"
    for name in ("fileio.read_tensor", "fileio.write_tensor"):
        units[f"{name}.mb_per_s"] = "MB/s"
    units["fileio.bytes_read"] = "B"
    units["fileio.bytes_written"] = "B"
    units["cli.startup_ms"] = "ms"
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.{sub}.p50_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Mismatch(Exception):
    """An op's output failed its correctness oracle."""


def expect(condition, message):
    if not condition:
        raise Mismatch(message)


@dataclass
class Op:
    """One benchmark operation: `run` is timed, `check` validates its result."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Pass:
    """Outcome of running whole cycles of a workload."""

    cycles: int = 0
    cycle_busy: list = field(default_factory=list)
    positions: list = field(default_factory=list)
    kinds: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    failed: int = 0
    failures: list = field(default_factory=list)

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def busy_s(self):
        return sum(self.latencies)

    def latencies_of(self, kind):
        return [t for k, t in zip(self.kinds, self.latencies) if k == kind]

    def op_times(self, summarize):
        """Each op's times over the cycles, summarized, in cycle order."""
        times = {}
        for position, elapsed in zip(self.positions, self.latencies):
            times.setdefault(position, []).append(elapsed)
        return [summarize(times[position]) for position in sorted(times)]


def run_op(op, tracer=None, op_id=0):
    """Time one op and check it; returns (seconds, failure message or None).

    Any exception from the op or its oracle marks the op failed; the run
    goes on with the next op.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.run()
        else:
            with tracer.op(op_id):
                result = op.run()
    except Exception as exc:  # a failing op must not stop the run
        return time.perf_counter() - start, f"{op.kind}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        op.check(result)
    except Exception as exc:  # oracle errors count as failures
        return elapsed, f"{op.kind}: {type(exc).__name__}: {exc}"
    return elapsed, None


def run_cycle(workload, out, tracer=None):
    """Run one cycle of `workload`, recording into `out`."""
    busy = 0.0
    for position, op in enumerate(workload.cycle()):
        elapsed, failure = run_op(op, tracer, op_id=len(out.latencies))
        busy += elapsed
        out.positions.append(position)
        out.kinds.append(op.kind)
        out.latencies.append(elapsed)
        if failure is not None:
            out.failed += 1
            if len(out.failures) < FAILURE_SAMPLES:
                out.failures.append(failure)
    out.cycle_busy.append(busy)
    out.cycles += 1


def cycles_left(done, start, budget_s, cycles):
    """True while fewer than `cycles` ran, or, without a count, while one more
    cycle of the mean length so far still ends within `budget_s`."""
    if cycles is not None:
        return done < cycles
    elapsed = time.perf_counter() - start
    return done == 0 or elapsed * (done + 1) / done <= budget_s


def run_pass(workload, budget_s=None, cycles=None):
    """Run whole cycles until `budget_s` has passed, or exactly `cycles` of them."""
    out = Pass()
    start = time.perf_counter()
    while cycles_left(out.cycles, start, budget_s, cycles):
        run_cycle(workload, out)
    return out


def run_paired(workload, tracer, package, budget_s=None, cycles=None):
    """Run each cycle untraced, then again traced, so drift hits both alike.

    The tracer's wrappers are installed only for the traced copy of a cycle.
    Returns the untraced and the traced pass.
    """
    plain, traced = Pass(), Pass()
    start = time.perf_counter()
    while cycles_left(plain.cycles, start, budget_s, cycles):
        run_cycle(workload, plain)
        tracer.install(package)
        try:
            run_cycle(workload, traced, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def timed_setup(workload, min_reps=SETUP_MIN_REPS, max_reps=SETUP_MAX_REPS,
                budget_s=SETUP_BUDGET_S):
    """Run set-up repeatedly; returns the per-repetition seconds."""
    times = []
    while len(times) < min_reps or (len(times) < max_reps and sum(times) < budget_s):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def peak_rss_mb():
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(setup_times, timed, rss_mb, op_time):
    """The end-to-end metrics of a timed run, plus the report-only extras.

    Throughput and latencies come from one time per op, summarized over its
    cycles as `op_time` names; run-wide figures over every op are extras.
    """
    per_op = timed.op_times(OP_TIMES[op_time])
    # Failed ops take time but do not count as completed.
    completed = (timed.attempted - timed.failed) / timed.attempted
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": completed * len(per_op) / sum(per_op),
        "latency_p50_ms": percentile(per_op, 50) * 1e3,
        "peak_rss_mb": rss_mb,
    }
    # p90 is kept only with at least ten ops beyond it.
    extras = {
        "latency_p90_ms": percentile(per_op, 90) * 1e3 if len(per_op) >= 100 else None,
        "failed_ratio": timed.failed / timed.attempted,
        "run_ops_per_s": (timed.attempted - timed.failed) / timed.busy_s,
        "run_latency_p50_ms": percentile(timed.latencies, 50) * 1e3,
    }
    return metrics, extras


# Whole-pass byte totals and the span whose bytes they sum.
BYTE_TOTALS = {
    "fileio.bytes_read": "fileio.read_tensor",
    "fileio.bytes_written": "fileio.write_tensor",
}


def layer_metrics(summary, cycles, extras):
    """Per-layer metrics per cycle from a span summary; unexercised ones are 0."""
    metrics = {}
    for name in layer_metric_units():
        span, _, stat = name.rpartition(".")
        if name in BYTE_TOTALS:
            span, stat = BYTE_TOTALS[name], "bytes"
        row = summary.get(span)
        if name in extras:
            metrics[name] = extras[name]
        elif row is None:
            metrics[name] = 0.0
        elif stat == "mb_per_s":
            metrics[name] = row["bytes"] / row["total_s"] / 1e6 if row["total_s"] > 0 else 0.0
        else:
            metrics[name] = row[stat] / cycles
    return metrics


# --- environment stamp -------------------------------------------------------


def blas_info():
    """BLAS name, version and thread count as numpy reports them."""
    name = version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = blas.get("name"), blas.get("version")
    except (AttributeError, TypeError, KeyError):
        pass
    return name, version, blas_threads()


def blas_threads():
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var, "").isdigit():
            return int(os.environ[var])
    return None


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def source_digest(src):
    """SHA-256 over the package sources, so a result names the code it measured."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "tsvdkit", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def commit_hash(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def environment(root, src, workload, seed):
    name, version, threads = blas_info()
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": name,
        "blas_version": version,
        "blas_threads": threads,
        "nproc": nproc(),
        "commit": commit_hash(root),
        "src_sha256": source_digest(src),
    }
