"""A/B timing of one benchmark workload across two source trees, in one process.

    python3 tools/ab.py BASE NEW --workload campaign --pairs 250 --seed 7
    python3 tools/ab.py BASE NEW --workload commit-roundtrip --count-differences

BASE and NEW are roots of two qotlab source checkouts (a clone of the parent
commit and this one, say). Each tree's `src/` and `bench/` are imported
under their own module objects, so both packages live side by side. Then
the ops of `bench/workloads.py` alternate between the trees, BASE first in
even pairs and NEW first in odd ones, both ops of a pair on the same op
seed; each op's output goes through the workload's own check, untimed, and
the pooled checks run at the end. The two ops of a pair must also return
the same output (`op_output`), a campaign's transcripts included: the
first difference is printed with its workload, op seed and key, and the
run exits 1. With `--count-differences`, for a change that moves seeded
output on purpose, a difference does not end the run: every op still goes
through its tree's own check and the pooled checks, and the number of ops
whose outputs differed is printed beside the timing rows, with the first;
below it, for every output key, the number of ops in which that key
differed (a transcript's or result's index read as `*`), so a change that
moves one command's seeded output on purpose shows that no other key moved.
Beside a float key that moved goes the largest relative difference seen,
`p1: 103 (max rel 7.1e-15)`, which tells a rounding move from a real one.

It prints each tree's median op time with its quartiles, the ratio of the
medians as BASE / NEW (above 1 means NEW is faster), and how many pairs
NEW won. Beside a tree's time goes its median bytes of transcript JSON per
op (`Workload.codec_bytes`) when that is not 0, as on commit-roundtrip, so
a change to the transcript format shows its size next to its speed. Alternating ops in one process cancels most of the machine's
drift, which moves one op's time by +-20% within seconds; `bench/run.py`
times the two trees in separate processes minutes apart. Nothing under
`bench/` is written.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import re
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

# modules a tree brings: its package, and the benchmark modules workloads imports
_TREE_MODULES = ("qotlab", "workloads", "oracles")


def _owned(name: str) -> bool:
    return any(name == m or name.startswith(m + ".") for m in _TREE_MODULES)


def load_workloads(root: Path):
    """`bench/workloads.py` of one tree, bound to that tree's qotlab."""
    if not (root / "src" / "qotlab" / "__init__.py").is_file():
        raise SystemExit(f"error: no qotlab sources under {root / 'src'}")
    saved_path = list(sys.path)
    # no __pycache__ written next to the tree's sources
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    try:
        for name in [n for n in sys.modules if _owned(n)]:
            del sys.modules[name]
        module = importlib.import_module("workloads")
    finally:
        sys.path[:] = saved_path
        # the loaded modules keep their own references; the next tree imports afresh
        for name in [n for n in sys.modules if _owned(n)]:
            del sys.modules[name]
    return module


def op_output(workload: str, out) -> dict[str, object]:
    """What an op returned that both trees must reproduce exactly, by key.
    A campaign's transcripts count as well as its CSV, since a change that
    moves a run's draws need not move any rate."""
    if workload == "campaign":
        fields = {f"csv[{key}]": text for key, text in out["csv"].items()}
        for i, t in enumerate(out["transcripts"]):
            sets = t.sets and (t.sets.i_set, t.sets.j_set, t.sets.m)
            fields.update({
                f"transcripts[{i}].sent": t.sender.bits.tolist(),
                f"transcripts[{i}].decoded": t.receiver.decoded.tolist(),
                f"transcripts[{i}].conclusive": t.receiver.conclusive,
                f"transcripts[{i}].sets": sets,
                f"transcripts[{i}].c0": t.c0,
                f"transcripts[{i}].c1": t.c1,
                f"transcripts[{i}].b_received": t.b_received,
            })
        return fields
    if workload == "exact":
        return {key: out[key] for key in ("csv", "n", "p1", "p2")}
    fields = {}
    for i, (protocol, bit, honest, path, tampered) in enumerate(out["results"]):
        at = f"results[{i}]"
        fields.update({f"{at}.protocol": protocol, f"{at}.bit": bit, f"{at}.tampered_path": path})
        for label, result in (("honest", honest), ("tampered", tampered)):
            fields[f"{at}.{label}.accepted"] = result.accepted
            fields[f"{at}.{label}.recovered_bit"] = result.recovered_bit
            fields[f"{at}.{label}.reason"] = result.first_inconsistency
    return fields


def differences(workload: str, base_out, new_out) -> dict[str, bool]:
    """Every key of either tree's output, in order, and whether its value
    differs between them; values are compared by repr, so floats must agree
    to the last bit."""
    base, new = op_output(workload, base_out), op_output(workload, new_out)
    return {
        key: repr(base.get(key)) != repr(new.get(key)) for key in dict.fromkeys([*base, *new])
    }


def relative_difference(base, new) -> Optional[float]:
    """|base - new| relative to the larger of the two when both are floats
    (np.float64 is one), else None."""
    if not all(isinstance(v, float) for v in (base, new)):
        return None
    if base == new:
        return 0.0
    return float(abs(base - new) / max(abs(base), abs(new)))


def key_group(key: str) -> str:
    """A key with its list indices read as `*`: `transcripts[3].sent` is
    counted as `transcripts[*].sent`, while `csv[rot]` stays itself."""
    return re.sub(r"\[\d+\]", "[*]", key)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", default="campaign")
    parser.add_argument("--pairs", type=int, default=250)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--count-differences",
        action="store_true",
        help="count the ops whose outputs differ instead of stopping at the first",
    )
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    sides = {}
    for label, root in (("base", args.base), ("new", args.new)):
        module = load_workloads(root.resolve())
        sides[label] = (module, module.make(args.workload))
    times: dict[str, list[float]] = {"base": [], "new": []}
    codec_bytes: dict[str, list[int]] = {"base": [], "new": []}
    differing: list[str] = []
    # per key group, the number of ops in which any of its keys differed
    counts: dict[str, int] = {}
    # per float key group that moved, the largest relative difference
    largest: dict[str, float] = {}
    gc.collect()
    for index in range(args.pairs + 1):  # op 0 warms both trees up, untimed
        order = ("base", "new") if index % 2 == 0 else ("new", "base")
        outs = {}
        for label in order:
            module, wl = sides[label]
            seed = module.op_seed(args.seed, index)
            t = time.perf_counter()
            outs[label] = wl.op(seed)
            if index:
                times[label].append(time.perf_counter() - t)
                codec_bytes[label].append(wl.codec_bytes(outs[label]))
            wl.check(outs[label])
        diff = differences(args.workload, outs["base"], outs["new"])
        moved = [key for key, differs in diff.items() if differs]
        for group in map(key_group, diff):
            counts.setdefault(group, 0)
        for group in set(map(key_group, moved)):
            counts[group] += 1
        if moved:
            where = f"{args.workload} op {index} (op seed {seed}): {moved[0]}"
            if not args.count_differences:
                print(f"OUTPUT DIFFERS: {where}")
                return 1
            differing.append(where)
            fields = [op_output(args.workload, outs[label]) for label in ("base", "new")]
            for key in moved:
                size = relative_difference(*(f.get(key) for f in fields))
                if size is not None:
                    group = key_group(key)
                    largest[group] = max(largest.get(group, 0.0), size)
    for label, (_, wl) in sides.items():
        wl.finish()
        for problem in wl.problems:
            print(f"CHECK FAIL ({label}): {problem}")

    for label in ("base", "new"):
        q1, med, q3 = statistics.quantiles(times[label], n=4)
        size = statistics.median(codec_bytes[label])
        codec = f"; codec {size:.0f} B/op" if size else ""
        print(f"{label:4s} {args.workload}: median {med * 1e3:.3f} ms/op "
              f"(q1 {q1 * 1e3:.3f}, q3 {q3 * 1e3:.3f}) over {args.pairs} ops{codec}")
    ratio = statistics.median(times["base"]) / statistics.median(times["new"])
    wins = sum(b > n for b, n in zip(times["base"], times["new"]))
    print(f"ratio base/new of the medians: x{ratio:.3f}; new faster in {wins}/{args.pairs} pairs")
    if args.count_differences:
        first = f"; first: {differing[0]}" if differing else ""
        print(f"outputs differ in {len(differing)}/{args.pairs + 1} ops, warm-up included{first}")
        for group, count in counts.items():
            size = f" (max rel {largest[group]:.2g})" if group in largest else ""
            print(f"  {group}: {count}{size}")
    return 1 if any(wl.problems for _, wl in sides.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
