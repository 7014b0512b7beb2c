"""gammalab benchmark: one workload per process, closed loop, one client.

Usage, from the repository root::

    python3 bench/run.py --workload homology --seed 1 --seconds 36 --trace 0

Workloads: ``homology``, ``census``, ``presentations`` (see workloads.py).

``--trace 0`` measures the end-to-end metrics with no instrumentation:
set-up time (the median over several fresh processes, from process start
to the moment the first query could be issued), per-query latency
percentiles, queries per second of query time, and peak resident memory.
Failed queries (raised, or answer disagreeing with the oracle) are counted
in ``failed`` and in the printed ``failed_ratio``.

``--trace 1`` runs one pass in which every query is issued three times
(warm-up, untraced, traced), and reports the per-layer metrics of the traced calls and
the ratio of traced to untraced throughput; the spans are written to
``.bench_run/trace-<workload>-<seed>.jsonl``.  The pass has a fixed size,
so the counts repeat exactly for a given seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from time import perf_counter

START = perf_counter()

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_run")
# Set-up is measured in fresh processes, half before the queries and half
# after, so that the median spans the run rather than one moment of it.
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
MIN_QUERIES = 100


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("homology", "census", "presentations"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, default=None,
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def measure_setup(args, count: int) -> list:
    """Set-up time of ``count`` fresh processes, one after another, each from
    the moment it is started to the moment it has imported the package,
    loaded the bundled inputs and warmed up.  CLOCK_MONOTONIC is shared by
    all processes."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--setup-probe", repr(time.monotonic()),
             "--workload", args.workload, "--seed", str(args.seed)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def throughput(loop) -> float:
    """Completed queries per second of query time."""
    return (loop.attempted - loop.raised) / sum(loop.latencies)


def end_to_end(loop, setup_times) -> dict:
    lat = loop.latencies
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "latency_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "latency_p90_ms": (percentile(lat, 90) * 1e3, "ms"),
        "queries_per_s": (throughput(loop), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gammalab", "__init__.py")):
        print(f"error: no gammalab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    if args.setup_probe is not None:
        workload.setup()
        print(time.monotonic() - args.setup_probe)
        return 0

    start = perf_counter()
    workload.generate()
    inputs_s = perf_counter() - start
    setup_times = measure_setup(args, SETUP_PROBES // 2) if args.trace == 0 else []
    workload.setup()

    info = {"inputs_s": (inputs_s, "s")}
    if args.trace == 0:
        loop = workloads.run_closed_loop(workload.make_pass, args.seconds,
                                         MIN_QUERIES)
        setup_times += measure_setup(args, SETUP_PROBES - SETUP_PROBES // 2)
        metrics = end_to_end(loop, setup_times)
        info["passes"] = (loop.passes, "count")
    else:
        loop, traced = workloads.LoopResult(), workloads.LoopResult()
        tracer = tracing.Tracer()
        # Each query runs three times back to back: once to warm the
        # allocator, then untraced, then traced, so that drift in the
        # machine's speed enters both halves of the ratio equally.
        for index, query in enumerate(workload.make_pass(0)):
            workloads.run_pass([query])
            loop.add(workloads.run_pass([query]))
            tracer.install()
            try:
                traced.add(workloads.run_pass([query], tracer, first_id=index))
            finally:
                tracer.close()
        overhead = throughput(traced) / throughput(loop)
        loop.add(traced)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        span_path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write_spans(span_path, START)
        info["spans"] = (len(tracer.spans), "count")

    info["samples"] = (loop.attempted, "count")
    info["failed_ratio"] = (loop.failed / loop.attempted, "ratio")
    for text in loop.failures[:20]:
        print(f"FAILED {text}")
    for name, (value, unit) in list(metrics.items()) + list(info.items()):
        print(f"{name:36s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
