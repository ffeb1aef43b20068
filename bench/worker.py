"""One workload in one fresh process; started by run.py, never by hand.

Modes:
  cold   import, run the warm-up op, report the set-up wall time, exit;
  run    the same set-up, then a closed loop of ops for --seconds;
  trace  the same set-up, then a fixed number of op pairs, each op run once
         untraced and once traced with the same seed.
The last line on stdout is one JSON object for run.py.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time

import calib
import tracing
import workloads

# at least this many timed ops per run, so that ten samples lie beyond p90
MIN_OPS = 100
# a run that has not reached MIN_OPS stops here all the same
HARD_STOP_S = 150.0
# traced op pairs per workload: fixed, so traced counts repeat for one seed
TRACE_OPS = {"campaign": 30, "exact": 60, "commit-roundtrip": 100}


def _quantile(samples: list[float], q: float) -> float:
    """Nearest-rank quantile of an unsorted list."""
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _set_up(args) -> tuple[workloads.Workload, float]:
    """The workload and the wall seconds from launch to its first timed op being ready."""
    wl = workloads.make(args.workload)
    wl.check(wl.op(workloads.op_seed(args.seed, 0)))
    return wl, time.monotonic() - args.t0


def _timed_loop(args, wl) -> dict:
    """Closed loop, one op at a time; each op's wall time is rescaled by the
    calibration kernel timed right before and right after it."""
    kernels: list[float] = []
    wall: list[float] = []
    scaled: list[float] = []
    failed = 0
    errors: list[str] = []
    gc.collect()
    start = time.monotonic()
    deadline = start + args.seconds
    index = 0
    kernel_before = calib.measure()
    while True:
        now = time.monotonic()
        if now >= deadline and index >= MIN_OPS or now - start > HARD_STOP_S:
            break
        index += 1
        seed = workloads.op_seed(args.seed, index)
        t = time.perf_counter()
        try:
            out = wl.op(seed)
        except Exception as exc:  # an op that raises counts as failed, the loop goes on
            failed += 1
            if len(errors) < 5:
                errors.append(f"op {index}: {type(exc).__name__}: {exc}")
            kernel_before = calib.measure()
            continue
        latency = time.perf_counter() - t
        kernel_after = calib.measure()
        kernels.append(kernel_after)
        wall.append(latency)
        scaled.append(latency * calib.REFERENCE_S * 2.0 / (kernel_before + kernel_after))
        kernel_before = kernel_after
        wl.check(out)
    if not scaled:
        raise SystemExit(f"no op completed: {errors}")
    peak = _peak_rss_mb()
    wl.finish()
    return {
        "attempted": index,
        "failed": failed,
        "errors": errors,
        "samples": len(scaled),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "op_p90_ms": _quantile(scaled, 0.9) * 1e3,
        "ops_per_s": len(scaled) / sum(scaled),
        "speed_factor": calib.REFERENCE_S / statistics.median(kernels),
        "wall_op_p50_ms": statistics.median(wall) * 1e3,
        "wall_ops_per_s": len(wall) / (time.monotonic() - start),
        "peak_rss_mb": peak,
    }


def _traced_pairs(args, wl) -> dict:
    ops = TRACE_OPS[args.workload]
    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    outer_s: dict[int, float] = {}
    output_bytes = 0
    codec_bytes = 0
    conclusive_errors = 0
    kernel_before = calib.measure()
    for index in range(1, ops + 1):
        seed = workloads.op_seed(args.seed, index)
        t = time.perf_counter()
        out = wl.op(seed)
        untraced_s = time.perf_counter() - t
        wl.check(out)
        tracer.install()
        try:
            t = time.perf_counter()
            out, traced_s = tracer.run_op(index, wl.op, seed)
            outer_s[index] = time.perf_counter() - t
        finally:
            tracer.uninstall()
        kernel_after = calib.measure()
        scale = calib.REFERENCE_S * 2.0 / (kernel_before + kernel_after)
        kernel_before = kernel_after
        tracer.op_scale[index] = scale
        untraced.append(untraced_s * scale)
        traced.append(traced_s * scale)
        wl.check(out)
        output_bytes += wl.output_bytes(out)
        codec_bytes += wl.codec_bytes(out)
        conclusive_errors += tracer.take_conclusive_errors()
    wl.finish()
    if conclusive_errors:
        wl.fail(f"{conclusive_errors} conclusive values contradict the sent bit")
    for problem in tracer.span_problems(outer_s)[:5]:
        wl.fail(f"spans: {problem}")
    metrics = tracing.layer_metrics(tracer, ops, output_bytes, codec_bytes)
    metrics["trace.overhead_ms"] = (
        (statistics.median(traced) - statistics.median(untraced)) * 1e3,
        "ms",
    )
    if args.spans:
        tracer.dump(args.spans)
    return {
        "attempted": 2 * ops,
        "failed": 0,
        "errors": [],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "spans": len(tracer.spans),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("cold", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at launch")
    parser.add_argument("--spans", default=None, help="file for the span dump (trace mode)")
    args = parser.parse_args(argv)

    wl, setup_wall_s = _set_up(args)
    result = {"setup_wall_s": setup_wall_s, "setup_s": setup_wall_s * calib.factor()}
    if args.mode == "run":
        result.update(_timed_loop(args, wl))
    elif args.mode == "trace":
        result.update(_traced_pairs(args, wl))
    result["problems"] = wl.problems
    result["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
