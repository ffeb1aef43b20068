"""Spans around the program's public functions, recorded from outside.

`Tracer.install()` replaces each function in SPANS at the place where its
caller looks it up (for example `rot.measure_projective`, not
`qsim.measure.measure_projective`), and `uninstall()` puts the originals
back. Nothing inside the package is changed. Spans are kept in memory as
[name, start, end, parent, op] lists and written out once the run ends.
A span's self time is its duration minus the durations of its direct
children; since the run has one thread, children never overlap.
"""
from __future__ import annotations

import importlib
import json
import time

# (module that looks the function up, attribute, span name)
SPANS = (
    ("qotlab.rot", "measure_projective", "qsim.measure_projective"),
    ("qotlab.bitcommit", "measure_projective", "qsim.measure_projective"),
    ("qotlab.rot", "measure_povm", "qsim.measure_povm"),
    ("qotlab.attacks", "born_probabilities", "qsim.born_probabilities"),
    ("qotlab.attacks", "apply_on_qubit", "qsim.apply_on_qubit"),
    ("qotlab.bitcommit", "apply_on_qubit", "qsim.apply_on_qubit"),
    ("qotlab.attacks", "fidelity", "qsim.fidelity"),
    ("qotlab.cli", "run_rot", "rot.run_rot"),
    ("qotlab.ot12", "run_rot", "rot.run_rot"),
    ("qotlab.bitcommit", "run_rot", "rot.run_rot"),
    ("qotlab.ot12", "run_masked_transfer", "ot12.run_masked_transfer"),
    ("qotlab.bitcommit", "run_masked_transfer", "ot12.run_masked_transfer"),
    ("qotlab.ot12", "binomial_tail", "ot12.binomial_tail"),
    ("qotlab.bitcommit", "bc_commit_over_ot", "bitcommit.commit"),
    ("qotlab.bitcommit", "p5_commit", "bitcommit.commit"),
    ("qotlab.bitcommit", "p3_measure", "bitcommit.p3_measure"),
    ("qotlab.bitcommit", "p4_unblind_and_measure", "bitcommit.p4_unblind_and_measure"),
    ("qotlab.bitcommit", "p5_measure_record", "bitcommit.p5_measure_record"),
    ("qotlab.attacks", "p5_measure_record", "bitcommit.p5_measure_record"),
    ("workloads", "encode", "bitcommit.codec"),
    ("workloads", "decode", "bitcommit.codec"),
    ("qotlab.bitcommit", "verify_from_states", "bitcommit.verify"),
    ("qotlab.attacks", "nogo_reduced_states", "attacks.nogo_reduced_states"),
    ("qotlab.attacks", "nogo_cheating_unitary", "attacks.nogo_cheating_unitary"),
    ("qotlab.attacks", "uhlmann_overlap", "attacks.uhlmann_overlap"),
    ("qotlab.cli", "probe_attack_p4", "attacks.probe_attack_p4"),
    ("qotlab.cli", "probe_attack_p3", "attacks.probe_attack_p3"),
    ("qotlab.cli", "omission_attack_p5", "attacks.omission_attack_p5"),
    ("qotlab.cli", "main", "cli.main"),
)

OP_SPAN = "op"
# rounding allowed in self times and in their sum per op, in s
SELF_SUM_ATOL_S = 1e-9
# wall time allowed between the timing around run_op and its root span, in s
ROOT_SLACK_S = 5e-3

# span names whose "<name>.calls" and "<name>.self_ms" metrics are reported
CALLS = (
    "qsim.measure_projective", "qsim.measure_povm", "qsim.born_probabilities",
    "qsim.apply_on_qubit", "qsim.fidelity", "rot.run_rot",
    "ot12.run_masked_transfer", "ot12.binomial_tail", "bitcommit.p5_measure_record",
    "cli.main",
)
SELF_MS = (
    "qsim.measure_projective", "qsim.measure_povm", "qsim.born_probabilities",
    "qsim.apply_on_qubit", "qsim.fidelity", "rot.run_rot",
    "ot12.run_masked_transfer", "ot12.binomial_tail", "bitcommit.commit",
    "bitcommit.p3_measure", "bitcommit.p4_unblind_and_measure",
    "bitcommit.p5_measure_record", "bitcommit.codec", "bitcommit.verify",
    "attacks.nogo_reduced_states", "attacks.nogo_cheating_unitary",
    "attacks.uhlmann_overlap", "attacks.probe_attack_p4", "attacks.probe_attack_p3",
    "attacks.omission_attack_p5",
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, int] = {}
        # op id -> factor its span times are multiplied by in totals()
        self.op_scale: dict[int, float] = {}
        # (sender, receiver) of every run_rot call, checked between ops
        self.rot_results: list = []
        self._saved: list[tuple[object, str, object]] = []
        self._hooks = {
            "rot.run_rot": self._after_run_rot,
            "ot12.run_masked_transfer": self._after_masked_transfer,
            "ot12.binomial_tail": self._after_binomial_tail,
            "bitcommit.commit": self._after_commit,
            "bitcommit.p5_measure_record": self._after_p5_record,
            "attacks.probe_attack_p4": self._after_probe_p4,
        }

    # -- recording ----------------------------------------------------------

    def add(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span; returns (result, traced duration s)."""
        self.op = op_id
        index = len(self.spans)
        result = self.wrap(OP_SPAN, fn)(*args)
        root = self.spans[index]
        return result, root[2] - root[1]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, span in SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span, original))
        rng_cls = importlib.import_module("qotlab.qsim.rng").RngStream
        choice_index = rng_cls.choice_index
        self._saved.append((rng_cls, "choice_index", choice_index))
        add = self.add

        def counted_choice_index(rng, probabilities):
            add("qsim.choice_index.calls")
            return choice_index(rng, probabilities)

        rng_cls.choice_index = counted_choice_index

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- counters at the same boundaries --------------------------------------

    def _after_run_rot(self, args, result) -> None:
        config = args[0]
        sender, receiver = result
        self.add("rot.qubits", config.n)
        self.add("rot.conclusive", len(receiver.conclusive))
        self.rot_results.append((sender, receiver))

    def _after_masked_transfer(self, args, result) -> None:
        self.add("ot12.completed", int(not result.aborted))
        if self.inside("bitcommit.commit"):
            self.add("bitcommit.attempts")
            self.add("bitcommit.channel_qubits", int(args[2]))

    def _after_binomial_tail(self, args, result) -> None:
        n, p, threshold = args[0], args[1], args[2]
        if 0 < threshold <= n and 0.0 < p < 1.0:
            self.add("ot12.binomial_tail.terms", n - threshold + 1)

    def _after_commit(self, args, result) -> None:
        sender = result.sender
        if hasattr(sender, "rounds"):
            self.add("bitcommit.rounds", len(sender.rounds))

    def _after_p5_record(self, args, result) -> None:
        if self.inside("bitcommit.commit"):
            self.add("bitcommit.channel_qubits")

    def _after_probe_p4(self, args, result) -> None:
        self.add("attacks.probe_attack_p4.qubits", int(args[0]) * int(args[1]))

    def take_conclusive_errors(self) -> int:
        """Conclusive values that contradict the sent bit, over the run_rot
        calls since the last call; outside any span, so untimed."""
        errors = sum(
            1
            for sender, receiver in self.rot_results
            for pos, val in receiver.conclusive
            if val != int(sender.bits[pos - 1])
        )
        self.rot_results.clear()
        return errors

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, in seconds, indexed like `spans`."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float]]:
        """Per span name: calls, summed self seconds, summed duration seconds,
        times scaled by their op's entry in `op_scale`."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        dur_s: dict[str, float] = {}
        for rec, own in zip(self.spans, self.self_times()):
            name = rec[0]
            scale = self.op_scale.get(rec[4], 1.0)
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own * scale
            dur_s[name] = dur_s.get(name, 0.0) + (rec[2] - rec[1]) * scale
        return calls, self_s, dur_s

    def span_problems(self, outer_s: dict[int, float]) -> list[str]:
        """What is wrong with the spans, given each op's wall seconds timed
        around `run_op`: per op, one root span that lies inside that outer
        time and falls short of it by at most ROOT_SLACK_S; no span with a
        negative self time (children that overlap or outlast their parent);
        self times that add up to the root span's duration."""
        problems: list[str] = []
        roots: dict[int, list] = {}
        sums: dict[int, float] = {}
        for rec, own in zip(self.spans, self.self_times()):
            name, start, end, parent, op = rec
            if own < -SELF_SUM_ATOL_S:
                problems.append(f"op {op}: span {name} has self time {own:.3g} s")
            if parent < 0:
                if name != OP_SPAN or op in roots:
                    problems.append(f"op {op}: span {name} has no parent")
                roots[op] = rec
            sums[op] = sums.get(op, 0.0) + own
        if sorted(roots) != sorted(outer_s):
            problems.append(f"root spans for ops {sorted(roots)}, timed ops {sorted(outer_s)}")
        for op, outer in outer_s.items():
            if op not in roots:
                continue
            root_s = roots[op][2] - roots[op][1]
            if not 0.0 <= outer - root_s <= ROOT_SLACK_S:
                problems.append(f"op {op}: root span {root_s:.6f} s, timed around it {outer:.6f} s")
            if abs(sums[op] - root_s) > SELF_SUM_ATOL_S:
                problems.append(f"op {op}: self times sum to {sums[op]:.9f} s, root span {root_s:.9f} s")
        return problems

    def dump(self, path) -> None:
        """One JSON list per line: [name, start_s, end_s, parent_line, op]."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, ops: int, cli_output_bytes: int, codec_bytes: int) -> dict:
    """Every per-layer metric, per op, as {name: (value, unit)}."""
    calls, self_s, dur_s = tracer.totals()
    counts = tracer.counts
    out: dict[str, tuple[float, str]] = {}
    for name in CALLS:
        out[f"{name}.calls"] = (calls.get(name, 0) / ops, "count")
    out["qsim.choice_index.calls"] = (counts.get("qsim.choice_index.calls", 0) / ops, "count")
    for name in SELF_MS:
        out[f"{name}.self_ms"] = (self_s.get(name, 0.0) * 1e3 / ops, "ms")
    out["cli.self_ms"] = (self_s.get("cli.main", 0.0) * 1e3 / ops, "ms")
    out["cli.output_bytes"] = (cli_output_bytes / ops, "bytes")

    qubits = counts.get("rot.qubits", 0)
    out["rot.qubits"] = (qubits / ops, "count")
    out["rot.qubits_per_s"] = (_ratio(qubits, dur_s.get("rot.run_rot", 0.0)), "1/s")
    out["rot.conclusive_per_qubit"] = (_ratio(counts.get("rot.conclusive", 0), qubits), "ratio")
    out["ot12.completed_per_run"] = (
        _ratio(counts.get("ot12.completed", 0), calls.get("ot12.run_masked_transfer", 0)),
        "ratio",
    )
    out["ot12.binomial_tail.terms"] = (counts.get("ot12.binomial_tail.terms", 0) / ops, "count")
    out["bitcommit.rounds_per_attempt"] = (
        _ratio(counts.get("bitcommit.rounds", 0), counts.get("bitcommit.attempts", 0)),
        "ratio",
    )
    out["bitcommit.channel_qubits"] = (counts.get("bitcommit.channel_qubits", 0) / ops, "count")
    out["bitcommit.codec.bytes"] = (codec_bytes / ops, "bytes")
    out["attacks.probe_attack_p4.qubits_per_s"] = (
        _ratio(counts.get("attacks.probe_attack_p4.qubits", 0), dur_s.get("attacks.probe_attack_p4", 0.0)),
        "1/s",
    )
    return out
