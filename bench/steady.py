"""Steadiness of the end-to-end metrics over repeated runs.

    python3 bench/steady.py [--runs 10] [--first-seed 1]

Runs `bench/run.py --trace 0` for every workload in BENCHMARK.json, in two
sets of `--runs` runs each, each run `run_seconds` long, with seeds first-seed, first-seed + 1, ...,
alternating the workload order from one round to the next. Per set it
prints each end-to-end metric's median, quartiles
(`statistics.quantiles(values, n=4)`) and spread (q3 - q1) / median next to
the metric's bound in BENCHMARK.json, and the share of failed ops. Then it
prints how far the second set's median moved from the first set's, in the
worse direction, as a share of the first. It exits 0 only if every spread
and every move is within its bound and the failed share is the same in
every run. Raw results go to bench/out/steady-<time>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# two sets, so that the set-to-set move of each median is checked too
SETS = 2


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False, timeout=400)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse `later` is than `first`, as a share of `first`."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    metrics = spec["end_to_end"]
    results: dict[str, list[list[dict]]] = {w: [] for w in names}
    for s in range(SETS):
        for w in names:
            results[w].append([])
        for r in range(args.runs):
            order = names if r % 2 == 0 else list(reversed(names))
            for w in order:
                seed = args.first_seed + s * args.runs + r
                results[w][s].append(one_run(w, seed, spec["run_seconds"]))
                print(f"set {s + 1} run {r + 1}/{args.runs} {w} seed {seed} done", flush=True)

    ok = True
    for w in names:
        shares = {r["failed"] / r["attempted"] for runs in results[w] for r in runs}
        ok &= len(shares) == 1
        print(f"\n{w}: failed share {'same in every run' if len(shares) == 1 else 'DIFFERS'}")
        for s, runs in enumerate(results[w]):
            failed = {r["failed"] / r["attempted"] for r in runs}
            correct = all(r["correct"] for r in runs)
            print(f"  set {s + 1}: {len(runs)} runs, failed shares {sorted(failed)}, all correct: {correct}")
            ok &= correct
            for m in metrics:
                values = [r["metrics"][m["name"]]["value"] for r in runs]
                med, q1, q3, sp = spread(values)
                flag = "ok" if sp <= m["bound"] / 3 else ("WIDE" if sp <= m["bound"] else "OVER")
                ok &= sp <= m["bound"]
                print(f"    {m['name']:<12} median {med:10.4f} {m['unit']:<4} q1 {q1:10.4f} q3 {q3:10.4f} "
                      f"spread {sp:6.3f}  bound {m['bound']:.3f} {flag}")
        for m in metrics:
            first, later = (statistics.median(r["metrics"][m["name"]]["value"] for r in runs)
                            for runs in results[w])
            drift = worse_by(first, later, m["better"])
            within = drift <= m["bound"]
            ok &= within
            print(f"    set 2 vs set 1 {m['name']:<12} worse by {drift:+.3f} "
                  f"(bound {m['bound']:.3f}) {'ok' if within else 'OVER'}")

    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(results, indent=1))
    print(f"\nraw results in {out.relative_to(ROOT)}; {'all within bounds' if ok else 'NOT within bounds'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
