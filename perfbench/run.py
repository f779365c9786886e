#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload check-testbed --seed 0 \\
        --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same plan once untraced and once with the layer wrappers installed and
prints the per-layer metrics. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``. The program under
test is imported from ``src/`` of the working directory; without it
the benchmark exits non-zero and prints no result.
"""

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: Fresh-interpreter setups per run; setup_s is their median.
SETUP_PROBES = 5


def bootstrap():
    """Point imports, workers and temp files at this checkout."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit("perfbench: no src/repro under %s; run from the "
                 "repository root" % os.getcwd())
    sys.path[:0] = [src, HERE]
    previous = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + previous if previous
                                      else "")
    workdir = os.path.join(os.getcwd(), ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    os.environ["TMPDIR"] = tempfile.tempdir = workdir
    return workdir


def cleanup(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(workdir))
    except OSError:
        pass  # another run still uses it


def percentile(values, q):
    """The q-quantile (q in 0..1), smoothed over neighbouring ranks.

    Items of a workload have fixed, unequal costs (a fault case on a
    long scenario against one on a short one), so a single order
    statistic can sit in a gap between two cost clusters and jump
    across it from run to run. This weights every order statistic by
    Beta(q(n+1), (1-q)(n+1)) at its rank, the Harrell-Davis weights
    taken at rank midpoints: with hundreds of items the estimate
    averages the few percent of ranks around q.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = q * (n + 1) - 1, (1 - q) * (n + 1) - 1
    logs = [a * math.log((i + 0.5) / n) + b * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logs)
    weights = [math.exp(value - top) for value in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def probe_setup(args):
    """Seconds from spawning a fresh interpreter to its first ready item."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--setup-probe"]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError("setup probe failed (exit %s)" % code)
    return ready


def end_to_end(tally, setups):
    seconds = [s for s, _ in tally.items]
    # A verb that reuses nothing (check) has no hits: a repeated
    # request costs what any request costs, so hit_ms is item_ms.
    hits = [s for s, hit in tally.items if hit] or seconds
    misses = [s for s, hit in tally.items if not hit]
    ms = 1000.0
    return {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(seconds) / tally.elapsed, "1/s"),
        "item_ms.p50": (percentile(seconds, 0.5) * ms, "ms"),
        "item_ms.p90": (percentile(seconds, 0.9) * ms, "ms"),
        "hit_ms.p50": (percentile(hits, 0.5) * ms, "ms"),
        "miss_ms.p50": (percentile(misses, 0.5) * ms, "ms"),
        "miss_ms.p90": (percentile(misses, 0.9) * ms, "ms"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(base, traced, tracer, serve_split):
    from layers import LAYER_NAMES

    metrics = {}
    totals = tracer.totals()
    for name in LAYER_NAMES:
        calls, self_s, _ = totals[name]
        metrics[name + ".calls"] = (calls, "count")
        metrics[name + ".self_ms"] = (self_s * 1000.0, "ms")

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    counts = traced.counts
    cycles = counts["sim.cycles"]
    for name in ("sim.cycles", "sim.settle_iterations", "sim.comb_evals",
                 "sim.ip_calls", "diag.emitted", "repair.validated",
                 "repair.plausible"):
        metrics[name] = (counts[name], "count")
    metrics["sim.comb_evals_per_cycle"] = (
        ratio(counts["sim.comb_evals"], cycles), "ratio")
    metrics["sim.ns_per_cycle"] = (
        ratio(totals["sim.step"][2] * 1e9, cycles), "ns")
    metrics["flow.absint_iterations"] = (tracer.absint_iterations, "count")
    metrics["faults.effect_ratio"] = (
        ratio(counts["faults.effectful"], counts["faults.cases"]), "ratio")
    metrics["repair.plausible_ratio"] = (
        ratio(counts["repair.plausible"], counts["repair.validated"]),
        "ratio")
    serve = traced.serve
    exec_s, overhead_s = serve_split or ([0.0], [0.0])
    metrics.update({
        "serve.submit_ms.p50": (
            percentile(serve.get("submit_s", [0.0]), 0.5) * 1000.0, "ms"),
        "serve.polls_per_job": (serve.get("polls_per_job", 0.0), "1/job"),
        "serve.cache_hits": (serve.get("cache_hits", 0), "count"),
        "serve.cache_misses": (serve.get("cache_misses", 0), "count"),
        "serve.executions": (serve.get("executions", 0), "count"),
        "serve.retries": (serve.get("retries", 0), "count"),
        "serve.exec_ms.p50": (percentile(exec_s, 0.5) * 1000.0, "ms"),
        "serve.overhead_ms.p50": (
            percentile(overhead_s, 0.5) * 1000.0, "ms"),
    })
    metrics["bench.trace_overhead"] = (
        ratio(len(traced.items) / traced.elapsed,
              len(base.items) / base.elapsed), "ratio")
    return metrics


def measure(args, workdir):
    from layers import LayerTracer, coverage_violations
    from workloads import WORKLOADS

    with open(os.path.join(HERE, "pins.json")) as handle:
        pins = json.load(handle)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, pins,
                                        workdir)
    try:
        workload.warm_up()
        if args.setup_probe:
            print("ready", file=sys.__stdout__, flush=True)
            return None
        if not args.trace:
            setups = [probe_setup(args) for _ in range(SETUP_PROBES)]
            tally = workload.run()
            metrics = end_to_end(tally, setups)
            failures = tally.failures
            attempted = tally.attempted
        else:
            base = workload.run()
            tracer = LayerTracer().install()
            try:
                tally = workload.run()
                # serve-mix: the layers its workers run, traced on an
                # in-process re-run of sampled miss jobs.
                workload.exec_split(tally)
            finally:
                tracer.uninstall()
            # ... and that sample timed again untraced.
            metrics = per_layer(base, tally, tracer,
                                workload.exec_split(tally))
            violations = coverage_violations(args.workload, tracer.totals())
            tally.operation("layer coverage", not violations,
                            "; ".join(violations))
            failures = base.failures + tally.failures
            attempted = base.attempted + tally.attempted
    finally:
        workload.close()
    for failure in failures:
        print("perfbench: FAILED %s" % failure, file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(metrics.items())
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(
        "check-testbed", "faults-campaign", "repair-d9-c2", "serve-mix"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workdir = bootstrap()
    try:
        # The program's own prints go to stderr; stdout carries the result.
        with contextlib.redirect_stdout(sys.stderr):
            result = measure(args, workdir)
    finally:
        cleanup(workdir)
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
