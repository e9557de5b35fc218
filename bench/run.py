"""quadcomp benchmark: one workload per process, built from a seed.

    python3 bench/run.py --workload crosscheck --seed 1 --seconds 50 --trace 0

With --trace 0 the run repeats the workload's fixed job (a pass) for about
--seconds seconds with tracing off and reports the end-to-end metrics.  With
--trace 1 it runs a warm-up pass, a traced pass and an untraced pass, then
the layer probes; it reports the per-layer metrics and writes every span to
bench/out/.  The last line of standard output is one JSON object; a run
that cannot import the package from this checkout's src/ exits with status 1
and prints none.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5
MIN_PASSES = 3
CHILD_TIMEOUT_S = 120


def load_package():
    """Import quadcomp from this checkout's src/ and no other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import quadcomp
    except ImportError as exc:
        raise SystemExit("error: cannot import quadcomp from %s: %s" % (SRC, exc))
    if Path(quadcomp.__file__).resolve().parent.parent != SRC:
        raise SystemExit("error: quadcomp was imported from %s, not %s" % (quadcomp.__file__, SRC))


def timed_setup(workload: str, seed: int):
    """Import numpy and the package, then build the workload's inputs."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (its import is part of what a user waits for)

    load_package()
    import workloads

    setup, run_pass = workloads.WORKLOADS[workload]
    inputs = setup(seed)
    return time.perf_counter() - t0, inputs, run_pass


def child_setup_seconds(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(run_pass, inputs, seconds: float):
    """Passes back to back until another would end after `seconds`."""
    from measure import Tally
    from tracing import NullTracer

    tracer, tally = NullTracer(), Tally()
    walls, samples = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        t0 = time.perf_counter()
        samples.extend(run_pass(inputs, tracer, tally))
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and elapsed + statistics.median(walls) > seconds:
            return walls, samples, tally


def end_to_end(args, setup_s: float, inputs, run_pass) -> dict:
    from measure import percentile

    setups = [setup_s] + [child_setup_seconds(args.workload, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]
    walls, samples, tally = run_untraced(run_pass, inputs, args.seconds)
    peak = rss_mb()
    print("setup_s samples: %s" % " ".join("%.4f" % s for s in setups))
    print("passes: %d, wall_s: %s" % (len(walls), " ".join("%.4f" % w for w in walls)))
    print("decompose samples: %d" % len(samples))
    report_tally(tally)
    verified = 1.0 - tally.total_failed / tally.total_attempted
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (peak, "MB"),
        "verified_frac": (verified, "ratio"),
        "decompose_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "decompose_p90_ms": (percentile(samples, 90) * 1e3, "ms"),
    }
    return result(tally, metrics)


def traced(args, inputs, run_pass) -> dict:
    import probes
    from measure import LAYERS, Tally
    from tracing import NullTracer, Tracer, layer_totals

    def untraced_pass():
        gc.collect()
        t0 = time.perf_counter()
        run_pass(inputs, NullTracer(), Tally())
        return time.perf_counter() - t0

    # The first pass warms the heap and lazily built tables, so the overhead
    # compares the traced pass with the untraced pass after it.
    untraced_pass()
    tracer, tally = Tracer(), Tally()
    gc.collect()
    t0 = time.perf_counter()
    with tracer.span("bench.pass", args.workload):
        run_pass(inputs, tracer, tally)
    wall_traced = time.perf_counter() - t0
    wall_untraced = untraced_pass()

    tracer.pass_id = "probe"
    metrics = probes.run_all(args.seed, tracer, tally)
    totals = layer_totals(tracer.spans)
    for layer in LAYERS:
        secs, calls = totals.get(layer, (0.0, 0))
        prefix = layer.lstrip("_")  # metric names start with a letter
        metrics[prefix + ".self_s"] = (secs, "s")
        metrics[prefix + ".calls"] = (calls, "count")
        metrics[prefix + ".failed"] = (tally.failed.get(layer, 0), "count")
    metrics.update(probes.span_metrics(tracer.spans))
    metrics["trace.overhead_s"] = (wall_traced - wall_untraced, "s")

    print("untraced pass %.4f s, traced pass %.4f s" % (wall_untraced, wall_traced))
    print("self time per layer over %d spans:" % len(tracer.spans))
    for layer, (secs, calls) in sorted(totals.items(), key=lambda kv: -kv[1][0]):
        print("  %-16s %10.4f s %10d calls" % (layer, secs, calls))
    report_tally(tally)
    OUT.mkdir(exist_ok=True)
    path = OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    tracer.write(str(path), {
        "workload": args.workload, "seed": args.seed,
        "wall_untraced_s": wall_untraced, "wall_traced_s": wall_traced,
        "self_s": {layer: secs for layer, (secs, _) in totals.items()},
    })
    print("spans written to %s" % path.relative_to(ROOT))
    return result(tally, metrics)


def report_tally(tally) -> None:
    print("attempted %d, failed %d (known defect %d)"
          % (tally.total_attempted, tally.total_failed, tally.known_failed))
    for note in tally.notes:
        print("  failure: %s" % note)


def result(tally, metrics: dict) -> dict:
    return {
        "correct": tally.unexpected_failed == 0,
        "attempted": tally.total_attempted,
        "failed": tally.total_failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("crosscheck", "enumerate", "count"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    from measure import cap_threads, host_facts

    threads = cap_threads()
    setup_s, inputs, run_pass = timed_setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0
    print("host: %s" % json.dumps(host_facts(threads), sort_keys=True))
    print("workload %s, seed %d, seconds %g, trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    if args.trace:
        doc = traced(args, inputs, run_pass)
    else:
        doc = end_to_end(args, setup_s, inputs, run_pass)
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
