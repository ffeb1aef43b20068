"""Peak RSS of one benchmark workload against the number of ops it ran.

    python3 tools/rss.py ROOT --workload exact --ops 4000 --seed 7

ROOT is the root of a qotlab source checkout. Run as a script, so that
numpy starts in this fresh interpreter with one BLAS thread, the ops of
`bench/workloads.py` run one after another on the benchmark's op seeds,
each output going through the workload's own check, as a benchmark run
does, but untimed. After op 0 (the warm-up) and a garbage collection,
ru_maxrss is read once; the script then prints, at a few op counts up to
--ops, how far ru_maxrss has risen above that reading. The pooled checks
run after the last reading, so the oracles' scipy import is not counted;
any failure is printed as CHECK FAIL and the script exits 1. The
benchmark's `peak_rss_mb` is the same reading taken after however many
ops a timed run completed, so two trees compare fairly only at equal op
counts, which this gives. Nothing under `bench/` is written.
"""
from __future__ import annotations

import argparse
import gc
import os
import resource
import sys
from pathlib import Path

from ab import load_workloads

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# op counts, as fractions of --ops, at which the rise is printed
CHECKPOINTS = (1 / 8, 1 / 4, 1 / 2, 1)


def max_rss_mb() -> float:
    """ru_maxrss of this process in MiB: Linux reports KiB, macOS bytes."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def measure(
    root: Path, workload: str, ops: int, seed: int
) -> tuple[float, list[tuple[int, float]], list[str]]:
    """The post-warm-up ru_maxrss in MiB, (op count, MiB above it) at each
    checkpoint, and the workload's check failures, measured in this
    interpreter."""
    module = load_workloads(root)
    wl = module.make(workload)
    wl.check(wl.op(module.op_seed(seed, 0)))
    gc.collect()
    base = max_rss_mb()
    marks = sorted({max(1, round(ops * f)) for f in CHECKPOINTS})
    rows = []
    for index in range(1, ops + 1):
        wl.check(wl.op(module.op_seed(seed, index)))
        if index == marks[len(rows)]:
            rows.append((index, max_rss_mb() - base))
    wl.finish()
    return base, rows, wl.problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("root", type=Path)
    parser.add_argument("--workload", default="exact")
    parser.add_argument("--ops", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.ops < 1:
        parser.error("--ops must be at least 1")
    root = args.root.resolve()
    # read by numpy's BLAS when load_workloads first imports it
    os.environ.update({var: "1" for var in THREAD_VARS})

    base, rows, problems = measure(root, args.workload, args.ops, args.seed)
    print(f"{root} {args.workload} seed {args.seed}: {base:.2f} MiB after the warm-up op")
    for index, rise in rows:
        print(f"{index:8d} ops: +{rise:.2f} MiB")
    for problem in problems:
        print(f"CHECK FAIL: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
