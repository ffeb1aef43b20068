"""Run one qotlab benchmark workload and print its metrics.

    python3 bench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the package is imported from
./src, nothing needs installing. With --trace 0 the run starts the
workload COLD_STARTS times in a fresh interpreter to measure set-up, then
once more for a closed timed loop of --seconds, and prints the end-to-end
metrics. Times are rescaled to the machine's usual speed (calib.py). With --trace 1 it starts one traced process instead and prints the
per-layer metrics. The last line on stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Each child process gets one BLAS thread. The launcher imports only the
standard library; the worker imports numpy and qotlab, and scipy only after
its timed ops, for the oracles.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("campaign", "exact", "commit-roundtrip")
# fresh-interpreter set-ups per run besides the timed process; setup_s is the
# median of all of them
COLD_STARTS = 8
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode: str, args, extra: list[str] = ()) -> dict:
    """Start worker.py in a fresh interpreter and return its JSON report."""
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--mode", mode, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        [*cmd, "--t0", repr(t0)],
        env=child_env(),
        stdout=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args) -> tuple[dict, dict]:
    colds = [run_worker("cold", args) for _ in range(COLD_STARTS)]
    report = run_worker("run", args)
    starts = colds + [report]
    setup_wall_s = statistics.median(c["setup_wall_s"] for c in starts)
    report["problems"] = [p for c in colds for p in c["problems"]] + report["problems"]
    metrics = {
        "setup_s": statistics.median(c["setup_s"] for c in starts),
        "ops_per_s": report["ops_per_s"],
        "op_p50_ms": report["op_p50_ms"],
        "op_p90_ms": report["op_p90_ms"],
        "peak_rss_mb": report["peak_rss_mb"],
    }
    print(f"{args.workload}: {report['samples']} timed ops, "
          f"{report['attempted']} attempted, {report['failed']} failed; "
          f"setup_s over {COLD_STARTS + 1} cold starts; {report['blas_threads']} BLAS thread")
    print(f"  wall clock, not rescaled: op p50 {report['wall_op_p50_ms']:.2f} ms, "
          f"{report['wall_ops_per_s']:.3f} ops/s, set-up {setup_wall_s:.3f} s; "
          f"speed factor {report['speed_factor']:.3f}")
    for err in report["errors"]:
        print(f"  failed op: {err}")
    return report, {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}


def traced(args) -> tuple[dict, dict]:
    OUT_DIR.mkdir(exist_ok=True)
    spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    report = run_worker("trace", args, ["--spans", str(spans)])
    print(f"{args.workload}: {report['attempted'] // 2} op pairs traced, "
          f"{report['spans']} spans written to {spans.relative_to(ROOT)}; "
          f"{report['blas_threads']} BLAS thread")
    return report, report["metrics"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qotlab benchmark: one workload, one run")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "qotlab" / "__init__.py").is_file():
        print(f"error: no qotlab sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    try:
        report, metrics = traced(args) if args.trace else end_to_end(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for problem in report["problems"]:
        print(f"CHECK FAIL: {problem}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result = {
        "correct": not report["problems"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
