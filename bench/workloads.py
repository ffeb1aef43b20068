"""The three benchmark workloads: what one op does and how its output is checked.

Each workload object has `op(op_seed)`, the timed call into the program,
`check(out)`, the per-op check of what that call returned (untimed), and
`finish()`, the checks on counts pooled over the run, which may import
scipy. Checks append one line per failure to `problems`; an empty list
means every output was correct. Every op of a workload has the same
make-up, only its seed differs.
"""
from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np
from qotlab import bitcommit, cli, ot12
from qotlab.qsim import RngStream

import oracles

# pooled Monte-Carlo counts must lie within this many sigma of the oracle
POOLED_SIGMAS = 6.0


def op_seed(seed: int, index: int) -> int:
    """The seed of op `index` in a run started with `seed`; index 0 is the warm-up."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def run_cli(argv: list[str]) -> str:
    """In-process `qotlab` call with stdout captured; a nonzero exit raises."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qotlab {' '.join(argv)} exited {code}")
    return buf.getvalue()


def parse_rows(text: str) -> dict[str, tuple[float, int]]:
    """CSV rows keyed "params/metric", valued (value, trials)."""
    lines = text.splitlines()
    if not lines or lines[0] != cli.CSV_HEADER:
        raise ValueError("output does not start with the CSV header")
    rows = {}
    for line in lines[1:]:
        _, params, metric, value, _, _, trials = line.split(",")
        rows[f"{params}/{metric}"] = (float(value), int(trials))
    return rows


def pick(rows: dict[str, tuple[float, int]], metric: str, params_part: str = "") -> tuple[float, int]:
    """The one row with this metric whose params contain `params_part`."""
    hits = [v for k, v in rows.items() if k.endswith("/" + metric) and params_part in k]
    if len(hits) != 1:
        raise ValueError(f"expected one {metric} row matching {params_part!r}, found {len(hits)}")
    return hits[0]


def count_of(row: tuple[float, int]) -> int:
    """The success count behind a Monte-Carlo rate row."""
    value, trials = row
    return round(value * trials)


def sigma_gap(hits: int, trials: int, p: float) -> float:
    """|hits/trials - p| in units of the binomial standard error at p."""
    sigma = math.sqrt(max(p * (1.0 - p), 1e-300) / trials)
    return abs(hits / trials - p) / sigma


class Workload:
    name = ""

    def __init__(self):
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(f"{self.name}: {message}")

    def op(self, seed: int):
        raise NotImplementedError

    def check(self, out) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Checks on values pooled over every op of the run."""

    def output_bytes(self, out) -> int:
        """Bytes of CSV the op's CLI calls wrote."""
        return 0

    def codec_bytes(self, out) -> int:
        """Bytes of transcript JSON the op encoded or decoded."""
        return 0


# ---------------------------------------------------------------------------
# campaign: in-process CLI Monte-Carlo campaigns at theta = pi/4


CAMPAIGN_N = 64
CAMPAIGN = (
    ("rot", ["rot", "--n", str(CAMPAIGN_N), "--trials", "6"]),
    ("ot12", ["ot12", "--n", str(CAMPAIGN_N), "--trials", "12"]),
    ("usd", ["attack", "--attack", "usd", "--n", str(CAMPAIGN_N), "--trials", "10"]),
    ("probe-p4", ["attack", "--attack", "probe-p4", "--n", "4", "--trials", "25"]),
    ("probe-p3", ["attack", "--attack", "probe-p3", "--n", "8", "--trials", "20000"]),
    ("omission", ["attack", "--attack", "omission", "--n", "8", "--m", "3", "--trials", "8"]),
)


class Campaign(Workload):
    """One op runs every CLI campaign in CAMPAIGN once, with the op's seed.

    The CSV carries no conclusive-error count for `attack usd`, so the
    transcripts `cli.run_ot12` returns are kept (a reference append per
    call) and their conclusive values are compared with the sent bits.
    """

    name = "campaign"

    def __init__(self):
        super().__init__()
        self.pooled = dict.fromkeys(
            (
                "honest_hits", "honest_qubits", "usd_hits", "usd_qubits",
                "aborts", "ot12_runs", "learned_both", "usd_runs",
                "p3_hits", "p3_qubits",
            ),
            0,
        )
        self.transcripts: list = []
        self._run_ot12 = cli.run_ot12

    def _keep_transcript(self, *args, **kwargs):
        t = self._run_ot12(*args, **kwargs)
        self.transcripts.append(t)
        return t

    def op(self, seed: int) -> dict:
        self.transcripts = []
        previous, cli.run_ot12 = cli.run_ot12, self._keep_transcript
        try:
            csv = {key: run_cli(argv + ["--seed", str(seed)]) for key, argv in CAMPAIGN}
        finally:
            cli.run_ot12 = previous
        return {"csv": csv, "transcripts": self.transcripts}

    def output_bytes(self, out) -> int:
        return sum(len(text) for text in out["csv"].values())

    def check(self, out) -> None:
        rows = {key: parse_rows(text) for key, text in out["csv"].items()}
        pool = self.pooled
        for strategy in ("honest", "usd"):
            errors = pick(rows["rot"], "conclusive_error_rate", f"strategy={strategy}")
            if errors[0] != 0.0:
                self.fail(f"rot {strategy}: conclusive error rate {errors[0]} is not 0")
            rate = pick(rows["rot"], "conclusive_rate", f"strategy={strategy}")
            pool[f"{strategy}_hits"] += count_of(rate)
            pool[f"{strategy}_qubits"] += rate[1]
        for t in out["transcripts"]:
            wrong = [p for p, v in t.receiver.conclusive if v != int(t.sender.bits[p - 1])]
            if wrong:
                self.fail(f"{t.strategy} run: conclusive values wrong at positions {wrong}")

        aborts = pick(rows["ot12"], "abort_rate")
        correct = pick(rows["ot12"], "received_correct_rate")
        completed = aborts[1] - count_of(aborts)
        if completed and (correct[0] != 1.0 or correct[1] != completed):
            self.fail(f"ot12: {count_of(correct)}/{completed} completed runs returned the chosen bit")
        pool["aborts"] += count_of(aborts)
        pool["ot12_runs"] += aborts[1]

        usd_rate = pick(rows["usd"], "conclusive_rate")
        pool["usd_hits"] += count_of(usd_rate)
        pool["usd_qubits"] += usd_rate[1]
        both = pick(rows["usd"], "learned_both_rate")
        pool["learned_both"] += count_of(both)
        pool["usd_runs"] += both[1]

        opened = pick(rows["omission"], "both_openings_accepted_rate")
        if opened[0] != 1.0:
            self.fail(f"omission: {count_of(opened)}/{opened[1]} trials opened both ways")

        p3 = pick(rows["probe-p3"], "per_qubit_detection")
        pool["p3_hits"] += count_of(p3)
        pool["p3_qubits"] += p3[1]

    def finish(self) -> None:
        pool = self.pooled
        pairs = (
            ("honest conclusive rate", "honest_hits", "honest_qubits", oracles.honest_rate()),
            ("usd conclusive rate", "usd_hits", "usd_qubits", oracles.usd_rate()),
            ("ot12 abort rate", "aborts", "ot12_runs", oracles.ot12_abort_rate(CAMPAIGN_N)),
            (
                "usd learned-both rate", "learned_both", "usd_runs",
                oracles.usd_learned_both_rate(CAMPAIGN_N),
            ),
            ("probe-p3 per-qubit detection", "p3_hits", "p3_qubits", oracles.probe_p3_detection()),
        )
        for label, hits, trials, exact in pairs:
            if pool[trials] == 0:
                self.fail(f"{label}: no trials pooled")
                continue
            gap = sigma_gap(pool[hits], pool[trials], exact)
            if gap > POOLED_SIGMAS:
                self.fail(
                    f"{label}: {pool[hits]}/{pool[trials]} is {gap:.1f} sigma from {exact:.6f}"
                )


# ---------------------------------------------------------------------------
# exact: dense no-go report plus the two binomial tails at one large n


NOGO_ARGV = ["attack", "--attack", "nogo", "--n", "6"]
NOGO_TWO_K = 6
TAIL_N_RANGE = (18000, 22000)
FIDELITY_ATOL = 1e-8
DETECTION_ATOL = 1e-10
TAIL_RTOL = 1e-9
# fixed small n, checked once per run outside the timed ops: at the op's n
# p1 is 1 to about 1e-97, so only here can a wrong p1 tail show
SMALL_TAIL_N = (64, 128, 256, 512)


class Exact(Workload):
    """One op: the no-go report at 2k = 6 and p1, p2 at n drawn from the seed."""

    name = "exact"

    def __init__(self):
        super().__init__()
        self.fidelities: list[float] = []
        self.tails: list[tuple[int, float, float]] = []

    def op(self, seed: int) -> dict:
        n = int(np.random.default_rng(seed).integers(TAIL_N_RANGE[0], TAIL_N_RANGE[1] + 1))
        text = run_cli(NOGO_ARGV)
        return {
            "csv": text,
            "n": n,
            "p1": ot12.p1_exact(n).value,
            "p2": ot12.p2_exact(n).value,
        }

    def output_bytes(self, out) -> int:
        return len(out["csv"])

    def check(self, out) -> None:
        rows = parse_rows(out["csv"])
        fidelity = pick(rows, "fidelity")[0]
        detection = pick(rows, "detection_probability")[0]
        if abs(detection - (1.0 - fidelity**2)) > DETECTION_ATOL:
            self.fail(f"nogo: detection {detection!r} is not 1 - F^2 for F = {fidelity!r}")
        self.fidelities.append(fidelity)
        self.tails.append((out["n"], out["p1"], out["p2"]))

    def finish(self) -> None:
        exact_f = oracles.nogo_fidelity(NOGO_TWO_K)
        for fidelity in self.fidelities:
            if abs(fidelity - exact_f) > FIDELITY_ATOL:
                self.fail(f"nogo: fidelity {fidelity!r} is off the oracle {exact_f!r}")
                break
        small = [(n, ot12.p1_exact(n).value, ot12.p2_exact(n).value) for n in SMALL_TAIL_N]
        n, p1, p2 = (np.array(col) for col in zip(*self.tails, *small))
        k = np.array([oracles.k_threshold(int(x)) for x in n])
        for label, got, want in (
            ("p1", p1, oracles.tail_at_least(n, oracles.honest_rate(), k)),
            ("p2", p2, oracles.tail_at_least(n, oracles.usd_rate(), 2 * k)),
        ):
            bad = np.flatnonzero(~(np.abs(got - want) <= TAIL_RTOL * np.abs(want)))
            if bad.size:
                i = bad[0]
                self.fail(f"{label}(n={n[i]}) = {got[i]!r}, binom.sf gives {want[i]!r}")


# ---------------------------------------------------------------------------
# commit-roundtrip: commit, codec, open, verify, and one tampered opening


COMMIT_L, COMMIT_N = 8, 16
P5_M, P5_N = 3, 8
PROTOCOLS = (bitcommit.PROTOCOL_P2BC, bitcommit.PROTOCOL_P3, bitcommit.PROTOCOL_P4, bitcommit.PROTOCOL_P5)
# the CLI's commit stream, one index per protocol
_COMMIT_STREAM = 8


def encode(to_dict, state) -> str:
    """A serialiser and its JSON text, as `qotlab commit`/`open` write them."""
    return json.dumps(to_dict(state), indent=2, sort_keys=True) + "\n"


def decode(from_dict, text: str):
    return from_dict(json.loads(text))


def bit_paths(open_dict: dict) -> list[tuple]:
    """Every bit of an opening, as a key path into its dict."""
    if open_dict["protocol_id"] == bitcommit.PROTOCOL_P5:
        return [("bit",)] + [
            ("strings", i, j)
            for i, s in enumerate(open_dict["strings"])
            for j in range(len(s))
        ]
    paths = []
    for i, rnd in enumerate(open_dict["rounds"]):
        paths += [("rounds", i, "share0"), ("rounds", i, "share1")]
        for side in ("declared_x", "declared_y"):
            paths += [("rounds", i, side, j, "val") for j in range(len(rnd[side]))]
    return paths


def flip_bit(open_dict: dict, path: tuple) -> None:
    node = open_dict
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] ^= 1


class CommitRoundtrip(Workload):
    """One op: for each protocol, commit, round-trip every transcript through
    JSON text, open, verify, then verify the opening with one bit flipped."""

    name = "commit-roundtrip"

    def op(self, seed: int) -> dict:
        tamper = np.random.default_rng(seed)
        results = []
        codec_bytes = 0
        for index, protocol in enumerate(PROTOCOLS):
            rng = RngStream(seed, _COMMIT_STREAM + index)
            b = rng.bit()
            if protocol == bitcommit.PROTOCOL_P5:
                transcript = bitcommit.p5_commit(
                    b, P5_M, P5_N, bitcommit.parity_function(P5_N), rng, measure_at_commit=True
                )
                opener = bitcommit.p5_open
            else:
                transcript = bitcommit.bc_commit_over_ot(b, COMMIT_L, COMMIT_N, protocol, rng)
                opener = bitcommit.bc_open
            sender_text = encode(bitcommit.sender_state_to_dict, transcript.sender)
            receiver_text = encode(bitcommit.receiver_state_to_dict, transcript.receiver)
            sender = decode(bitcommit.sender_state_from_dict, sender_text)
            open_text = encode(bitcommit.open_message_to_dict, opener(sender))
            receiver = decode(bitcommit.receiver_state_from_dict, receiver_text)
            honest = bitcommit.verify_from_states(
                receiver, decode(bitcommit.open_message_from_dict, open_text)
            )
            bad = json.loads(open_text)
            paths = bit_paths(bad)
            path = paths[int(tamper.integers(len(paths)))]
            flip_bit(bad, path)
            bad_text = json.dumps(bad, indent=2, sort_keys=True) + "\n"
            tampered = bitcommit.verify_from_states(
                receiver, decode(bitcommit.open_message_from_dict, bad_text)
            )
            codec_bytes += len(sender_text) + len(receiver_text) + len(open_text) + len(bad_text)
            results.append((protocol, b, honest, path, tampered))
        return {"results": results, "codec_bytes": codec_bytes}

    def codec_bytes(self, out) -> int:
        return out["codec_bytes"]

    def check(self, out) -> None:
        for protocol, b, honest, path, tampered in out["results"]:
            if not honest.accepted or honest.recovered_bit != b:
                self.fail(
                    f"{protocol}: honest opening of {b} gave accepted={honest.accepted}, "
                    f"bit={honest.recovered_bit}, reason={honest.first_inconsistency!r}"
                )
            if tampered.accepted or not tampered.first_inconsistency:
                self.fail(f"{protocol}: opening with bit {path} flipped was not rejected with a reason")


def make(name: str) -> Workload:
    return {"campaign": Campaign, "exact": Exact, "commit-roundtrip": CommitRoundtrip}[name]()
