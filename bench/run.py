"""Run one tsvdkit benchmark workload and print its metrics.

    python3 bench/run.py --workload small_algebra --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55

Run from the root of a checkout: the library is imported from ``src/`` of the
checkout this script sits in, never from an installed copy.  With
``--trace 0`` the run is timed with tracing off and reports the end-to-end
metrics; with ``--trace 1`` it runs each cycle untraced and then traced and
reports the per-layer metrics.  A human-readable report goes to stderr and a full record with
the environment stamp to ``bench/out/``.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  ``--workload
all`` runs every workload in its own process and prints one table.
"""

import argparse
import json
import os
import subprocess
import sys

import harness
import workloads
from spans import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def log(line=""):
    print(line, file=sys.stderr)


def load_library():
    """Import tsvdkit (and its CLI) from this checkout's src, or return None."""
    if not os.path.isfile(os.path.join(SRC, "tsvdkit", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import tsvdkit
    import tsvdkit.cli  # the cli workload and the tracer use it

    if not os.path.abspath(tsvdkit.__file__).startswith(SRC + os.sep):
        return None
    return tsvdkit


def timed_run(workload, seconds):
    setup_times = harness.timed_setup(workload)
    timed = harness.run_pass(workload, budget_s=seconds)
    metrics, extras = harness.end_to_end(setup_times, timed, workload.peak_rss_mb(),
                                          workload.op_time)
    log(f"{workload.name}: {timed.cycles} cycles, {timed.attempted} ops, "
        f"{timed.failed} failed, busy {timed.busy_s:.3f} s; "
        f"setup reps {', '.join(f'{t:.4f}' for t in setup_times)} s")
    log(f"  {'setup_s':<16}{metrics['setup_s']:>14.4f} s")
    log(f"  {'ops_per_s':<16}{metrics['ops_per_s']:>14.4f} 1/s")
    log(f"  {'latency_p50_ms':<16}{metrics['latency_p50_ms']:>14.4f} ms")
    p90 = extras["latency_p90_ms"]
    log(f"  {'latency_p90_ms':<16}"
        + (f"{p90:>14.4f} ms" if p90 is not None else f"{'n/a':>14} (fewer than 100 ops)"))
    log(f"  {'peak_rss_mb':<16}{metrics['peak_rss_mb']:>14.4f} MB")
    log(f"  {'failed_ratio':<16}{extras['failed_ratio']:>14.4f} ratio "
        f"({timed.failed} of {timed.attempted} ops)")
    log(f"  (times are each op's {workload.op_time} of {timed.cycles} cycles; over every op "
        f"of the run: {extras['run_ops_per_s']:.4f} ops/s, "
        f"p50 {extras['run_latency_p50_ms']:.4f} ms)")
    return timed, metrics, {"extras": extras, "setup_times": setup_times,
                            "cycles": timed.cycles, "cycle_busy_s": timed.cycle_busy,
                            "kinds": summarize_kinds(timed)}


def summarize_kinds(run):
    out = {}
    for kind in dict.fromkeys(run.kinds):
        times = run.latencies_of(kind)
        out[kind] = {"ops": len(times), "p50_ms": harness.percentile(times, 50) * 1e3}
    return out


def traced_run(tk, workload, seconds):
    """Cycles run untraced and traced in alternation; per-layer metrics per cycle."""
    harness.timed_setup(workload, min_reps=1, max_reps=1)
    tracer = Tracer()
    if hasattr(workload, "inprocess"):
        # CLI subprocesses cannot be traced from here: time them first, then
        # trace the same cycles through main() in-process, and take the
        # overhead ratio against the same in-process calls untraced.
        reference = harness.run_pass(workload, budget_s=seconds / 3)
        workload.inprocess = True
        try:
            plain, traced = harness.run_paired(workload, tracer, tk, cycles=reference.cycles)
        finally:
            workload.inprocess = False
    else:
        plain, traced = harness.run_paired(workload, tracer, tk, budget_s=seconds)
        reference = plain
    passes = [plain, traced] + ([reference] if reference is not plain else [])
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    summary = tracer.summary()
    extras = workload.layer_extras(reference)
    extras["trace.overhead_ratio"] = traced.busy_s / plain.busy_s
    metrics = harness.layer_metrics(summary, traced.cycles, extras)
    smoke = workload.smoke(reference)
    os.makedirs(OUT, exist_ok=True)
    tracer.write_csv(os.path.join(OUT, f"trace-{workload.name}.csv"))

    cycles = traced.cycles
    log(f"{workload.name} traced: {cycles} cycles, each run untraced then traced, "
        f"{traced.attempted} traced ops, "
        f"{len(tracer.spans)} spans; overhead ratio {extras['trace.overhead_ratio']:.4f}")
    log(f"  {'span':<28}{'calls/cycle':>12}{'self_s/cycle':>14}{'share':>8}")
    for name, row in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
        log(f"  {name:<28}{row['calls'] / cycles:>12.1f}{row['self_s'] / cycles:>14.6f}"
            f"{row['self_s'] / traced.busy_s:>8.1%}")
    log_split(workload, summary, reference, traced, metrics)
    log(f"  {'per-layer metric':<28}{'value':>16} unit")
    for name, unit in harness.layer_metric_units().items():
        log(f"  {name:<28}{metrics[name]:>16.6g} {unit}")
    log("  smoke check against ROADMAP baselines (not a gate):")
    for label, seconds_measured in smoke.items():
        roadmap = workloads.ROADMAP_BASELINES[label]
        log(f"    {label:<26} measured {seconds_measured * 1e3:>10.3f} ms   "
            f"ROADMAP {roadmap * 1e3:>10.3f} ms   ratio {seconds_measured / roadmap:.2f}")
    for failure in [f for p in passes for f in p.failures][:harness.FAILURE_SAMPLES]:
        log(f"  failed: {failure}")
    detail = {"cycles": cycles, "smoke_s": smoke, "kinds": summarize_kinds(reference)}
    return failed, attempted, metrics, detail


def log_split(workload, summary, plain, traced, metrics):
    """Where the traced time went, by module, plus the workload's own split claim."""
    modules = {}
    for name, row in summary.items():
        module = name.split(".", 1)[0]
        modules[module] = modules.get(module, 0.0) + row["self_s"]
    outside = traced.busy_s - sum(modules.values())
    shares = ", ".join(f"{m} {s / traced.busy_s:.1%}" for m, s in
                       sorted(modules.items(), key=lambda kv: -kv[1]))
    log(f"  self time by module: {shares}, outside library {outside / traced.busy_s:.1%}")
    if workload.name == "cli":
        startup_s = metrics["cli.startup_ms"] * 1e-3 * plain.attempted
        share = (modules.get("fileio", 0.0) + startup_s) / plain.busy_s
        log(f"  split: fileio + startup ({plain.attempted} x {metrics['cli.startup_ms']:.1f} ms)"
            f" = {share:.1%} of subprocess wall time")
    counts = {k: v for k, v in metrics.items() if k.startswith("fileio.")}
    if workload.name != "cli":
        log(f"  fileio counts (expected all 0): {counts}")


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def record_path(workload, seed, trace):
    return os.path.join(OUT, f"{workload}-seed{seed}-trace{trace}.json")


def run_one(args):
    threads_env = os.environ.pop("TSVDKIT_THREADS", None)
    tk = load_library()
    if tk is None:
        log(f"bench: no tsvdkit package under {SRC}; run from a checkout of the repository")
        return 2
    env = harness.environment(ROOT, SRC, args.workload, args.seed)
    workload = workloads.make(args.workload, tk, args.seed, SRC, OUT)
    log("env: " + json.dumps(env))
    log(f"why {args.workload}: {workload.why}")
    if threads_env is not None:
        log(f"bench: ignoring TSVDKIT_THREADS={threads_env!r}; runs use the default")
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        log(f"bench: WARNING: BLAS uses {env['blas_threads']} threads on "
            f"{env['nproc']} processors; timings will be noisy")

    try:
        if args.trace:
            failed, attempted, metrics, detail = traced_run(tk, workload, args.seconds)
            units = harness.layer_metric_units()
        else:
            timed, metrics, detail = timed_run(workload, args.seconds)
            failed, attempted = timed.failed, timed.attempted
            for failure in timed.failures:
                log(f"  failed: {failure}")
            units = harness.END_TO_END
    finally:
        workload.close()

    os.makedirs(OUT, exist_ok=True)
    with open(record_path(args.workload, args.seed, args.trace), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "why": workload.why, "seconds": args.seconds,
                   "attempted": attempted, "failed": failed, "metrics": metrics,
                   **detail}, fh, indent=1)
    print(result_line(failed == 0, attempted, failed, metrics, units))
    return 0


def run_all(args):
    """Each workload in its own process (so peak RSS is its own), one table."""
    rows, combined, code = [], {}, 0
    totals = {"attempted": 0, "failed": 0}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0 or not done.stdout.strip():
            code = done.returncode or 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined[f"{name}.{metric}"] = value
            rows.append((name, metric, value["value"], value["unit"]))
        if not args.trace:
            with open(record_path(name, args.seed, 0), encoding="utf-8") as fh:
                extras = json.load(fh)["extras"]
            p90 = extras["latency_p90_ms"]
            rows.append((name, "latency_p90_ms", p90 if p90 is not None else "n/a (<100 ops)", "ms"))
            rows.append((name, "failed_ratio", extras["failed_ratio"],
                         f"ratio of {result['attempted']} ops"))
    for name, metric, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"{name:<14}{metric:<32}{shown:>16} {unit}")
    print(json.dumps({"correct": code == 0 and totals["failed"] == 0, **totals,
                      "metrics": combined}))
    return code


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
