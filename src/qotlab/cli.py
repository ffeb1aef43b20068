"""Command-line experiment runner.

`EXPERIMENTS` is the one table of what a command line can run, keyed by
(subcommand, --attack or --protocol value): `rot`, `ot12`, the attacks, the
commit protocols, `open` and `verify`. Each entry names its runner and the
flags it reads with their defaults; the parser, the defaults, the dispatch
and the refusal of a flag the experiment does not read all come from it.
Campaigns emit rows of (experiment, params, metric, value, ci_low, ci_high,
trials) as CSV or JSON, sorted so that a fixed seed gives byte-identical
output; `--check` prints each statistical guard to stderr and exits 3 when
one of them fails.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .attacks import (
    NoGoInstance,
    nogo_cheat_report,
    omission_attack_p5,
    p3_probe_detection_probability,
    p4_probe_detection_probability,
    probe_attack_p3,
    probe_attack_p4,
)
from .bitcommit import (
    PROTOCOL_FAMILIES,
    PROTOCOL_P5,
    bc_commit_over_ot,
    open_message_from_dict,
    open_message_to_dict,
    p5_commit,
    parity_function,
    protocol_family,
    receiver_state_from_dict,
    receiver_state_to_dict,
    sender_state_from_dict,
    sender_state_to_dict,
    verify_from_states,
)
from .ot12 import (
    DEFAULT_ALPHA,
    abort_rate_exact,
    binomial_tail,
    k_of,
    p1_exact,
    p2_exact,
    run_ot12,
    wilson_interval,
)
from .qsim.rng import DEFAULT_SEED, RngStream
from .qsim.states import ENCODE_ANGLE
from .rot import HONEST, USD, RotConfig, run_rot

CSV_HEADER = "experiment,params,metric,value,ci_low,ci_high,trials"

CURVE_N_LIST = (64, 128, 256, 512, 1024)

# --protocol name of each protocol id, e.g. "p2bc" for "P2-BC"
_PROTOCOLS = {pid.lower().replace("-", ""): pid for pid in PROTOCOL_FAMILIES}

# fixed stream offsets per campaign so reruns and partial runs never collide
_STREAM_ROT_HONEST = 0
_STREAM_ROT_USD = 1
_STREAM_OT12 = 2
_STREAM_ATTACK_USD = 3
_STREAM_PROBE_P3 = 5
_STREAM_PROBE_P4 = 6
_STREAM_OMISSION = 7
_STREAM_COMMIT = 8


@dataclass(frozen=True)
class ResultRow:
    experiment: str
    params: str
    metric: str
    value: float
    ci_low: float
    ci_high: float
    trials: int

    def __post_init__(self):
        if not self.ci_low <= self.value <= self.ci_high:
            raise ValueError("confidence bounds must bracket the value")


def _g(x: float) -> str:
    return format(float(x), ".12g")


def _mc_row(experiment: str, params: str, metric: str, successes: int, trials: int) -> ResultRow:
    """A Monte-Carlo rate with its 95% Wilson interval."""
    low, high = wilson_interval(successes, trials)
    return ResultRow(experiment, params, metric, successes / trials, low, high, trials)


def _exact_row(experiment: str, params: str, metric: str, value: float) -> ResultRow:
    return ResultRow(experiment, params, metric, value, value, value, 0)


def rows_to_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    for r in sorted(rows, key=lambda r: (r.experiment, r.params, r.metric)):
        lines.append(
            ",".join(
                (r.experiment, r.params, r.metric, _g(r.value), _g(r.ci_low), _g(r.ci_high), str(r.trials))
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_json(rows: list[ResultRow]) -> str:
    payload = [asdict(r) for r in sorted(rows, key=lambda r: (r.experiment, r.params, r.metric))]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _comparison(label: str, hits: int, trials: int, exact: float) -> tuple[str, bool]:
    """The line `--check` prints for a Monte-Carlo count of hits in trials
    against its exact rate, and whether the count fails. It fails when a
    count at least as far out on its side, X >= hits or X <= hits for
    X ~ Binomial(trials, exact), has exact probability (the line's tail)
    below 2.8665e-7, the normal tail beyond 5 sigma on one side; at an
    exact 0 or 1 any other count has probability 0."""
    p, count = (exact, hits) if hits > exact * trials else (1.0 - exact, trials - hits)
    tail = binomial_tail(trials, p, count)
    value, sigma = hits / trials, math.sqrt(exact * (1.0 - exact) / trials)
    gap = value - exact
    spread = f"sigma {sigma:.6g}, z {gap / sigma:.2f}" if sigma else f"sigma 0, gap {gap:.6g}"
    line = f"{label} {value:.6g} ({hits}/{trials}), exact {exact:.6g}, tail {tail:.3g}, {spread}"
    return line, tail < 2.8665e-7


def cmd_rot(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[tuple]]:
    rows: list[ResultRow] = []
    checks: list[tuple] = []
    config = RotConfig(n=cfg.n, theta=cfg.theta)
    for strategy, offset in ((HONEST, _STREAM_ROT_HONEST), (USD, _STREAM_ROT_USD)):
        camp = RngStream(cfg.seed, offset)
        sent, decoded = [], []
        for t in range(cfg.trials):
            sender, receiver = run_rot(config, strategy, camp.substream(t))
            sent.append(sender.bits)
            decoded.append(receiver.decoded)
        sent, decoded = np.stack(sent), np.stack(decoded)
        conclusive = int(np.count_nonzero(decoded >= 0))
        # a cell is wrong when it holds the other bit; -1 is neither
        errors = int(np.count_nonzero(decoded == sent ^ 1))
        qubits = cfg.trials * cfg.n
        params = f"n={cfg.n};strategy={strategy};theta={_g(cfg.theta)}"
        rows.append(_mc_row("rot", params, "conclusive_rate", conclusive, qubits))
        exact = (
            config.honest_conclusive_rate if strategy == HONEST else config.usd_conclusive_rate
        )
        rows.append(_exact_row("rot", params, "conclusive_rate_exact", exact))
        rows.append(_mc_row("rot", params, "conclusive_error_rate", errors, max(conclusive, 1)))
        checks.append((f"rot {strategy}: conclusive rate", conclusive, qubits, exact))
        checks.append((f"rot {strategy}: conclusive error rate", errors, max(conclusive, 1), 0.0))
    return rows, checks


def _transfer_trials(cfg: argparse.Namespace, strategy: str, stream: int):
    """Yield (b0, b1, transcript) per trial: trial t reads substream t of
    the campaign's stream and draws b0, then b1. `run_ot12` is looked up
    here at each call, so a wrapper on `cli.run_ot12` sees every trial."""
    camp = RngStream(cfg.seed, stream)
    for t in range(cfg.trials):
        rng = camp.substream(t)
        b0, b1 = rng.bit(), rng.bit()
        yield b0, b1, run_ot12(cfg.n, b0, b1, strategy, rng, theta=cfg.theta, alpha=cfg.alpha)


def cmd_ot12(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[tuple]]:
    rows: list[ResultRow] = []
    aborts = correct = 0
    for b0, b1, tr in _transfer_trials(cfg, HONEST, _STREAM_OT12):
        if tr.aborted:
            aborts += 1
        elif tr.b_received == tr.sets.pick(b0, b1):
            correct += 1
    completed = cfg.trials - aborts
    # both tails at the run's n and along the curve, each n computed once
    tails = {
        n: {
            "p1_exact": p1_exact(n, cfg.alpha, cfg.theta).value,
            "p2_exact": p2_exact(n, cfg.alpha, cfg.theta).value,
        }
        for n in {cfg.n, *CURVE_N_LIST}
    }
    honest_rate = RotConfig(n=cfg.n, theta=cfg.theta).honest_conclusive_rate
    abort_exact = abort_rate_exact(cfg.n, honest_rate, cfg.alpha)
    params = f"alpha={cfg.alpha};n={cfg.n};theta={_g(cfg.theta)}"
    rows.append(_mc_row("ot12", params, "abort_rate", aborts, cfg.trials))
    rows.append(_exact_row("ot12", params, "abort_rate_exact", abort_exact))
    rows.append(_mc_row("ot12", params, "received_correct_rate", correct, max(completed, 1)))
    for metric, value in tails[cfg.n].items():
        rows.append(_exact_row("ot12", params, metric, value))
    for n in CURVE_N_LIST:
        cparams = f"alpha={cfg.alpha};n={n};theta={_g(cfg.theta)}"
        rows.append(_exact_row("ot12-curve", cparams, "k", float(k_of(n, cfg.alpha))))
        for metric, value in tails[n].items():
            rows.append(_exact_row("ot12-curve", cparams, metric, value))
    return rows, [
        ("ot12: abort rate", aborts, cfg.trials, abort_exact),
        ("ot12: wrong-bit rate", completed - correct, max(completed, 1), 0.0),
    ]


def _attack_usd(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[tuple]]:
    rows: list[ResultRow] = []
    decoded = []
    aborts = learned_both = 0
    for _, _, tr in _transfer_trials(cfg, USD, _STREAM_ATTACK_USD):
        decoded.append(tr.receiver.decoded)
        if tr.aborted:
            aborts += 1
            continue
        # both masks are known when every announced cell is conclusive
        cells = tr.receiver.decoded.tolist()
        learned_both += min([cells[p - 1] for p in tr.sets.i_set + tr.sets.j_set]) >= 0
    conclusive = int(np.count_nonzero(np.stack(decoded) >= 0))
    qubits = cfg.trials * cfg.n
    params = f"alpha={cfg.alpha};attack=usd;n={cfg.n};theta={_g(cfg.theta)}"
    exact_rate = RotConfig(n=cfg.n, theta=cfg.theta).usd_conclusive_rate
    abort_exact = abort_rate_exact(cfg.n, exact_rate, cfg.alpha)
    p2 = p2_exact(cfg.n, cfg.alpha, cfg.theta)
    rows.append(_mc_row("attack", params, "conclusive_rate", conclusive, qubits))
    rows.append(_exact_row("attack", params, "conclusive_rate_exact", exact_rate))
    rows.append(_mc_row("attack", params, "abort_rate", aborts, cfg.trials))
    rows.append(_exact_row("attack", params, "abort_rate_exact", abort_exact))
    rows.append(_mc_row("attack", params, "learned_both_rate", learned_both, cfg.trials))
    rows.append(_exact_row("attack", params, "learned_both_exact", p2.value))
    return rows, [
        ("attack usd: conclusive rate", conclusive, qubits, exact_rate),
        ("attack usd: abort rate", aborts, cfg.trials, abort_exact),
        ("attack usd: learned-both rate", learned_both, cfg.trials, p2.value),
    ]


def _attack_nogo(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[tuple]]:
    inst = NoGoInstance(two_k=cfg.n, theta=cfg.theta)
    report = nogo_cheat_report(inst)
    params = f"attack=nogo;theta={_g(cfg.theta)};two_k={cfg.n}"
    rows = [
        _exact_row("attack", params, "fidelity", report.fidelity),
        _exact_row("attack", params, "achieved_overlap", report.achieved_overlap),
        _exact_row("attack", params, "detection_probability", report.detection_probability),
    ]
    return rows, []


def _probe_rows(
    attack: str, detected: np.ndarray, exact_pq: float
) -> tuple[list[ResultRow], list[tuple]]:
    """Rows and checks of a probe campaign from its (trials, n) detection
    grid, each rate beside its exact twin: a run succeeds when none of its
    n qubits is detected."""
    trials, n = detected.shape
    hits = int(np.count_nonzero(detected))
    # a run is detected when any of its columns is: OR the columns, reading
    # each row's whole 8-byte words as uint64 columns (a view, no copy) and
    # the cells after them as bool columns, which beats a row-wise any() on
    # a grid of many short rows
    grid = np.ascontiguousarray(detected, dtype=bool)
    whole = n - n % 8
    columns = [*grid[:, :whole].view(np.uint64).T, *grid[:, whole:].T]
    runs_detected = functools.reduce(np.logical_or, columns)
    successes = trials - int(np.count_nonzero(runs_detected))
    exact_run = (1.0 - exact_pq) ** n
    params = f"attack={attack};n={n}"
    rows = [
        _mc_row("attack", params, "per_qubit_detection", hits, detected.size),
        _exact_row("attack", params, "per_qubit_detection_exact", exact_pq),
        _mc_row("attack", params, "run_success", successes, trials),
        _exact_row("attack", params, "run_success_exact", exact_run),
    ]
    return rows, [
        (f"{attack}: per-qubit detection", hits, detected.size, exact_pq),
        (f"{attack}: run success", successes, trials, exact_run),
    ]


def _attack_probe_p3(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[tuple]]:
    detected = probe_attack_p3(cfg.n, cfg.trials, RngStream(cfg.seed, _STREAM_PROBE_P3))
    exact_pq = sum(
        p3_probe_detection_probability(r, x) for r in (0, 1) for x in (0, 1)
    ) / 4.0
    return _probe_rows("probe-p3", detected, exact_pq)


def _attack_probe_p4(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[tuple]]:
    detected = probe_attack_p4(cfg.n, cfg.trials, RngStream(cfg.seed, _STREAM_PROBE_P4))
    # detection is a trigonometric polynomial of degree 4 in the blinding
    # angle, so its mean over 8 equispaced angles is its exact uniform average
    nodes = 2 * np.pi * np.arange(8) / 8
    exact_pq = float(np.mean(p4_probe_detection_probability(nodes)))
    return _probe_rows("probe-p4", detected, exact_pq)


def _attack_omission(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[tuple]]:
    rows: list[ResultRow] = []
    report = omission_attack_p5(
        cfg.n, cfg.m, cfg.trials, cfg.perfect_detectors, RngStream(cfg.seed, _STREAM_OMISSION)
    )
    detected = int(np.count_nonzero(report.detected_at_commit))
    both_accepted = int(np.count_nonzero(report.succeeded))
    params = (
        f"attack=omission;m={cfg.m};n={cfg.n};"
        f"perfect_detectors={'true' if cfg.perfect_detectors else 'false'}"
    )
    rows.append(_mc_row("attack", params, "detected_at_commit_rate", detected, cfg.trials))
    rows.append(_mc_row("attack", params, "both_openings_accepted_rate", both_accepted, cfg.trials))
    # perfect detectors catch every omission; with imperfect ones every run opens both ways
    perfect = float(cfg.perfect_detectors)
    return rows, [
        ("omission: detected-at-commit rate", detected, cfg.trials, perfect),
        ("omission: opened-both-ways rate", both_accepted, cfg.trials, 1 - perfect),
    ]


def _dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load(path: Path):
    """A transcript file's JSON. The decoder gives up on nesting deeper than
    the interpreter's recursion limit; such a file is malformed like any other."""
    try:
        return json.loads(path.read_text())
    except RecursionError:
        raise ValueError(f"{path.name} is nested too deeply to read") from None


def cmd_commit(cfg: argparse.Namespace) -> int:
    protocol_id = _PROTOCOLS[cfg.protocol]
    rng = RngStream(cfg.seed, _STREAM_COMMIT)
    b = rng.bit()
    if protocol_id == PROTOCOL_P5:
        transcript = p5_commit(b, cfg.m, cfg.n, parity_function(cfg.n), rng)
    else:
        # only the plain channel reads --theta; the others fix the angle at pi/4
        theta = vars(cfg).get("theta", ENCODE_ANGLE)
        transcript = bc_commit_over_ot(
            b, cfg.l, cfg.n, protocol_id, rng, theta=theta, alpha=cfg.alpha
        )
    cfg.out.mkdir(parents=True, exist_ok=True)
    _dump(cfg.out / "sender.json", sender_state_to_dict(transcript.sender))
    _dump(cfg.out / "receiver.json", receiver_state_to_dict(transcript.receiver))
    print(f"committed under {transcript.sender.protocol_id}; transcripts in {cfg.out}")
    return 0


def cmd_open(cfg: argparse.Namespace) -> int:
    sender = sender_state_from_dict(_load(cfg.out / "sender.json"))
    msg = protocol_family(sender.protocol_id).open(sender)
    _dump(cfg.out / "open.json", open_message_to_dict(msg))
    print(f"open message written for {sender.protocol_id}")
    return 0


def cmd_verify(cfg: argparse.Namespace) -> int:
    receiver = receiver_state_from_dict(_load(cfg.out / "receiver.json"))
    msg = open_message_from_dict(_load(cfg.out / "open.json"))
    result = verify_from_states(receiver, msg)
    if result.accepted:
        print(f"accepted: committed bit {result.recovered_bit}")
        return 0
    print(f"rejected: {result.first_inconsistency}")
    return 3


class Experiment(NamedTuple):
    """A runner and the flags it reads, each with its default. A runner that
    reads --format returns (rows, checks), each check a (label, hits,
    trials, exact) tuple; any other returns its exit code."""

    runner: Callable[[argparse.Namespace], object]
    flags: dict[str, object]


_REQUIRED = object()  # the default of a flag the experiment cannot run without
_THETA = {"--theta": ENCODE_ANGLE}
_ALPHA = {"--alpha": str(DEFAULT_ALPHA)}
# a seed of None is read from QOT_SEED, else DEFAULT_SEED
_CAMPAIGN = {"--trials": 200, "--seed": None, "--out": None, "--format": "csv", "--check": False}
_COMMIT = {"--seed": None, "--out": _REQUIRED}

# every experiment a command line can name, keyed by (subcommand, value of
# its --attack or --protocol selector)
EXPERIMENTS = {
    ("rot", None): Experiment(cmd_rot, {"--n": 64, **_THETA, **_CAMPAIGN}),
    ("ot12", None): Experiment(cmd_ot12, {"--n": 64, **_THETA, **_ALPHA, **_CAMPAIGN}),
    ("attack", "usd"): Experiment(_attack_usd, {"--n": 64, **_THETA, **_ALPHA, **_CAMPAIGN}),
    ("attack", "nogo"): Experiment(_attack_nogo, {"--n": 4, **_THETA, "--out": None, "--format": "csv"}),
    ("attack", "probe-p3"): Experiment(_attack_probe_p3, {"--n": 8, **_CAMPAIGN}),
    ("attack", "probe-p4"): Experiment(_attack_probe_p4, {"--n": 4, **_CAMPAIGN}),
    ("attack", "omission"): Experiment(
        _attack_omission, {"--n": 8, "--m": 3, "--perfect-detectors": False, **_CAMPAIGN}
    ),
    ("commit", "p2bc"): Experiment(cmd_commit, {"--n": 16, "--l": 8, **_THETA, **_ALPHA, **_COMMIT}),
    ("commit", "p3"): Experiment(cmd_commit, {"--n": 16, "--l": 8, **_ALPHA, **_COMMIT}),
    ("commit", "p4"): Experiment(cmd_commit, {"--n": 16, "--l": 8, **_ALPHA, **_COMMIT}),
    ("commit", "p5"): Experiment(cmd_commit, {"--n": 8, "--m": 3, **_COMMIT}),
    ("open", None): Experiment(cmd_open, {"--out": _REQUIRED}),
    ("verify", None): Experiment(cmd_verify, {"--out": _REQUIRED}),
}

_SELECTORS = {"attack": "--attack", "commit": "--protocol"}

# argparse keyword arguments of every flag an experiment can read
_FLAGS = {
    "--n": dict(type=int, help="qubits per run / string length"),
    "--l": dict(type=int, help="commitment rounds"),
    "--m": dict(type=int, help="strings per direct commitment"),
    "--trials": dict(type=int),
    "--seed": dict(type=int),
    "--theta": dict(type=float),
    "--alpha": dict(type=str, help="rate margin for k"),
    "--perfect-detectors": dict(action="store_true"),
    "--out": dict(type=Path),
    "--format": dict(choices=("csv", "json")),
    "--check": dict(action="store_true"),
}
_DEST = {flag: flag[2:].replace("-", "_") for flag in _FLAGS}


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process from EXPERIMENTS: each subcommand
    takes the flags its experiments read and records only those given."""
    parser = argparse.ArgumentParser(
        prog="qotlab",
        description="simulation experiments for quantum oblivious transfer and bit commitment",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in dict.fromkeys(command for command, _ in EXPERIMENTS):
        entries = {choice: e for (c, choice), e in EXPERIMENTS.items() if c == command}
        p = sub.add_parser(command, argument_default=argparse.SUPPRESS)
        if command in _SELECTORS:
            p.add_argument(_SELECTORS[command], choices=tuple(entries), required=True)
        read = {flag for e in entries.values() for flag in e.flags}
        for flag in (f for f in _FLAGS if f in read):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _resolve_config(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> tuple[argparse.Namespace, Experiment]:
    """Find the experiment the command line names, refuse the flags it does not
    read and fill in the rest; the namespace then holds exactly its settings."""
    selector = _SELECTORS.get(args.command)
    choice = getattr(args, selector[2:]) if selector else None
    experiment = EXPERIMENTS[args.command, choice]
    label = " ".join(filter(None, (args.command, choice)))
    flags = vars(args)
    unread = [f for f in _FLAGS if _DEST[f] in flags and f not in experiment.flags]
    if unread:
        parser.error(f"{label} does not read {', '.join(unread)}")
    for flag, default in experiment.flags.items():
        if default is _REQUIRED and _DEST[flag] not in flags:
            parser.error(f"{label} requires {flag}")
        flags.setdefault(_DEST[flag], default)
    if flags.get("seed", 0) is None:
        raw = os.environ.get("QOT_SEED", str(DEFAULT_SEED))
        try:
            args.seed = int(raw)
        except ValueError:
            parser.error(f"QOT_SEED={raw!r} is not an integer seed")
    if "alpha" in flags:
        try:
            args.alpha = Fraction(args.alpha)
        except (ValueError, ZeroDivisionError):
            parser.error(f"--alpha {args.alpha!r} is not a fraction")
    if any(flags.get(name, 1) < 1 for name in ("n", "l", "m", "trials")):
        parser.error("n, l, m and trials must be positive")
    return args, experiment


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    cfg, experiment = _resolve_config(parser.parse_args(argv), parser)
    try:
        outcome = experiment.runner(cfg)
        if "--format" not in experiment.flags:
            return outcome
        rows, checks = outcome
        text = rows_to_csv(rows) if cfg.format == "csv" else rows_to_json(rows)
        if cfg.out is not None:
            cfg.out.write_text(text)
        else:
            sys.stdout.write(text)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # only --check sums the exact tails; a plain run pays nothing for them
    compared = [_comparison(*c) for c in checks] if vars(cfg).get("check") else []
    for line, failed in compared:
        print(f"CHECK {'FAIL' if failed else 'ok'}: {line}", file=sys.stderr)
    return 3 if any(failed for _, failed in compared) else 0


if __name__ == "__main__":
    sys.exit(main())
