"""Command-line experiment runner.

Subcommands: `rot` (conclusive-rate campaigns for the honest and the
discrimination receiver), `ot12` (end-to-end transfer runs plus the exact
security values and curve), `commit` / `open` / `verify` (the two-phase
commitment flow over JSON transcript files), and `attack` (the adversarial
campaigns). Results are rows of (experiment, params, metric, value, ci_low,
ci_high, trials) emitted as CSV or JSON, sorted so that a fixed seed gives
byte-identical output. `--check` additionally asserts the documented
statistical claims and exits 3 when one fails.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import numpy as np

from .attacks import (
    NoGoInstance,
    nogo_cheat_report,
    omission_attack_p5,
    p3_probe_detection_probability,
    probe_attack_p3,
    probe_attack_p4,
)
from .bitcommit import (
    PROTOCOL_FAMILIES,
    PROTOCOL_P5,
    bc_commit_over_ot,
    check_theta,
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
from .ot12 import monte_carlo_estimate, p1_exact, p2_exact, run_ot12, security_curve
from .qsim.rng import DEFAULT_SEED, RngStream
from .rot import HONEST, USD, RotConfig, run_rot

CSV_HEADER = "experiment,params,metric,value,ci_low,ci_high,trials"

CURVE_N_LIST = (64, 128, 256, 512, 1024)

# --protocol name of each protocol id, e.g. "p2bc" for "P2-BC"
_PROTOCOLS = {pid.lower().replace("-", ""): pid for pid in PROTOCOL_FAMILIES}
_ATTACK_CHOICES = ("usd", "nogo", "probe-p3", "probe-p4", "omission")

# fixed stream offsets per campaign so reruns and partial runs never collide
_STREAM_ROT_HONEST = 0
_STREAM_ROT_USD = 1
_STREAM_OT12 = 2
_STREAM_ATTACK_USD = 3
_STREAM_PROBE_P3 = 5
_STREAM_PROBE_P4 = 6
_STREAM_OMISSION = 7
_STREAM_COMMIT = 8

_DEFAULT_N = {
    "rot": 64,
    "ot12": 64,
    "commit-ot": 16,
    "commit-p5": 8,
    "usd": 64,
    "nogo": 4,
    "probe-p3": 8,
    "probe-p4": 4,
    "omission": 8,
}


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
    est = monte_carlo_estimate(successes, trials)
    return ResultRow(experiment, params, metric, est.value, est.ci_low, est.ci_high, trials)


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
    payload = [
        {
            "experiment": r.experiment,
            "params": r.params,
            "metric": r.metric,
            "value": r.value,
            "ci_low": r.ci_low,
            "ci_high": r.ci_high,
            "trials": r.trials,
        }
        for r in sorted(rows, key=lambda r: (r.experiment, r.params, r.metric))
    ]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _sigma(p: float, trials: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / trials)


def cmd_rot(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[str]]:
    rows: list[ResultRow] = []
    fails: list[str] = []
    config = RotConfig(n=cfg.n, theta=cfg.theta)
    for strategy, offset in ((HONEST, _STREAM_ROT_HONEST), (USD, _STREAM_ROT_USD)):
        camp = RngStream(cfg.seed, offset)
        conclusive = 0
        errors = 0
        for t in range(cfg.trials):
            rng = camp.substream(t)
            sender, receiver = run_rot(config, strategy, rng)
            conclusive += len(receiver.conclusive)
            errors += sum(
                1 for pos, val in receiver.conclusive if val != int(sender.bits[pos - 1])
            )
        qubits = cfg.trials * cfg.n
        params = f"n={cfg.n};strategy={strategy};theta={_g(cfg.theta)}"
        rows.append(_mc_row("rot", params, "conclusive_rate", conclusive, qubits))
        exact = (
            config.honest_conclusive_rate if strategy == HONEST else config.usd_conclusive_rate
        )
        rows.append(_exact_row("rot", params, "conclusive_rate_exact", exact))
        rows.append(_mc_row("rot", params, "conclusive_error_rate", errors, max(conclusive, 1)))
        if cfg.check:
            mc = conclusive / qubits
            if abs(mc - exact) > 5.0 * _sigma(exact, qubits):
                fails.append(f"rot {strategy}: conclusive rate {mc:.6f} off exact {exact:.6f}")
            if errors != 0:
                fails.append(f"rot {strategy}: {errors} conclusive errors, expected none")
    return rows, fails


def cmd_ot12(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[str]]:
    rows: list[ResultRow] = []
    fails: list[str] = []
    camp = RngStream(cfg.seed, _STREAM_OT12)
    aborts = 0
    completed = 0
    correct = 0
    for t in range(cfg.trials):
        rng = camp.substream(t)
        b0, b1 = rng.bit(), rng.bit()
        tr = run_ot12(cfg.n, b0, b1, HONEST, rng, theta=cfg.theta, alpha=cfg.alpha)
        if tr.aborted:
            aborts += 1
        else:
            completed += 1
            if tr.b_received == (b0 if tr.m == 0 else b1):
                correct += 1
    p1 = p1_exact(cfg.n, cfg.alpha, cfg.theta)
    p2 = p2_exact(cfg.n, cfg.alpha, cfg.theta)
    params = f"alpha={cfg.alpha};n={cfg.n};theta={_g(cfg.theta)}"
    rows.append(_mc_row("ot12", params, "abort_rate", aborts, cfg.trials))
    rows.append(_exact_row("ot12", params, "abort_rate_exact", 1.0 - p1.value))
    rows.append(_mc_row("ot12", params, "received_correct_rate", correct, max(completed, 1)))
    rows.append(_exact_row("ot12", params, "p1_exact", p1.value))
    rows.append(_exact_row("ot12", params, "p2_exact", p2.value))
    for curve in security_curve(list(CURVE_N_LIST), cfg.alpha, cfg.theta):
        cparams = f"alpha={cfg.alpha};n={curve.n};theta={_g(cfg.theta)}"
        rows.append(_exact_row("ot12-curve", cparams, "k", float(curve.k)))
        rows.append(_exact_row("ot12-curve", cparams, "p1_exact", curve.p1))
        rows.append(_exact_row("ot12-curve", cparams, "p2_exact", curve.p2))
    if cfg.check:
        expected_abort = 1.0 - p1.value
        mc = aborts / cfg.trials
        if abs(mc - expected_abort) > 5.0 * _sigma(expected_abort, cfg.trials):
            fails.append(f"ot12: abort rate {mc:.6f} off exact {expected_abort:.6f}")
        if correct != completed:
            fails.append(f"ot12: {completed - correct} completed runs returned the wrong bit")
    return rows, fails


def _attack_usd(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[str]]:
    rows: list[ResultRow] = []
    fails: list[str] = []
    camp = RngStream(cfg.seed, _STREAM_ATTACK_USD)
    conclusive = 0
    aborts = 0
    learned_both = 0
    for t in range(cfg.trials):
        rng = camp.substream(t)
        b0, b1 = rng.bit(), rng.bit()
        tr = run_ot12(cfg.n, b0, b1, USD, rng, theta=cfg.theta, alpha=cfg.alpha)
        conclusive += len(tr.receiver.conclusive)
        if tr.aborted:
            aborts += 1
            continue
        cmap = tr.receiver.conclusive_map()
        if all(p in cmap for p in tr.sets.i_set) and all(p in cmap for p in tr.sets.j_set):
            learned_both += 1
    qubits = cfg.trials * cfg.n
    params = f"alpha={cfg.alpha};attack=usd;n={cfg.n};theta={_g(cfg.theta)}"
    exact_rate = RotConfig(n=cfg.n, theta=cfg.theta).usd_conclusive_rate
    p2 = p2_exact(cfg.n, cfg.alpha, cfg.theta)
    rows.append(_mc_row("attack", params, "conclusive_rate", conclusive, qubits))
    rows.append(_exact_row("attack", params, "conclusive_rate_exact", exact_rate))
    rows.append(_mc_row("attack", params, "abort_rate", aborts, cfg.trials))
    rows.append(_mc_row("attack", params, "learned_both_rate", learned_both, cfg.trials))
    rows.append(_exact_row("attack", params, "learned_both_exact", p2.value))
    if cfg.check:
        mc = conclusive / qubits
        if abs(mc - exact_rate) > 5.0 * _sigma(exact_rate, qubits):
            fails.append(f"attack usd: conclusive rate {mc:.6f} off exact {exact_rate:.6f}")
        lb = learned_both / cfg.trials
        if abs(lb - p2.value) > 5.0 * _sigma(p2.value, cfg.trials):
            fails.append(f"attack usd: learned-both rate {lb:.6f} off exact {p2.value:.6f}")
    return rows, fails


def _attack_nogo(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[str]]:
    inst = NoGoInstance(two_k=cfg.n, theta=cfg.theta)
    report = nogo_cheat_report(inst)
    params = f"attack=nogo;theta={_g(cfg.theta)};two_k={cfg.n}"
    rows = [
        _exact_row("attack", params, "fidelity", report.fidelity),
        _exact_row("attack", params, "achieved_overlap", report.achieved_overlap),
        _exact_row("attack", params, "detection_probability", report.detection_probability),
    ]
    return rows, []


def _attack_probe_p3(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[str]]:
    rows: list[ResultRow] = []
    fails: list[str] = []
    rng = RngStream(cfg.seed, _STREAM_PROBE_P3)
    report = probe_attack_p3(cfg.n, cfg.trials, rng)
    exact_pq = sum(
        p3_probe_detection_probability(r, x) for r in (0, 1) for x in (0, 1)
    ) / 4.0
    exact_run = (1.0 - exact_pq) ** cfg.n
    params = f"attack=probe-p3;n={cfg.n}"
    pq = report.per_qubit_detection
    run = report.run_success
    qubits = cfg.trials * cfg.n
    rows.append(ResultRow("attack", params, "per_qubit_detection", pq.value, pq.ci_low, pq.ci_high, qubits))
    rows.append(_exact_row("attack", params, "per_qubit_detection_exact", exact_pq))
    rows.append(ResultRow("attack", params, "run_success", run.value, run.ci_low, run.ci_high, cfg.trials))
    rows.append(_exact_row("attack", params, "run_success_exact", exact_run))
    if cfg.check:
        if abs(pq.value - exact_pq) > 5.0 * _sigma(exact_pq, qubits):
            fails.append(f"probe-p3: per-qubit detection {pq.value:.6f} off exact {exact_pq:.6f}")
        if abs(run.value - exact_run) > 5.0 * _sigma(exact_run, cfg.trials):
            fails.append(f"probe-p3: run success {run.value:.6f} off exact {exact_run:.6f}")
    return rows, fails


def _attack_probe_p4(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[str]]:
    rows: list[ResultRow] = []
    fails: list[str] = []
    rng = RngStream(cfg.seed, _STREAM_PROBE_P4)
    report = probe_attack_p4(cfg.n, cfg.trials, rng)
    params = f"attack=probe-p4;n={cfg.n}"
    pq = report.per_qubit_detection
    run = report.run_success
    qubits = cfg.trials * cfg.n
    rows.append(ResultRow("attack", params, "per_qubit_detection", pq.value, pq.ci_low, pq.ci_high, qubits))
    rows.append(ResultRow("attack", params, "run_success", run.value, run.ci_low, run.ci_high, cfg.trials))
    if cfg.check:
        if pq.value <= 5.0 * _sigma(pq.value, qubits):
            fails.append(f"probe-p4: detection {pq.value:.6f} not significantly above zero")
    return rows, fails


def _attack_omission(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[str]]:
    rows: list[ResultRow] = []
    fails: list[str] = []
    camp = RngStream(cfg.seed, _STREAM_OMISSION)
    detected = 0
    both_accepted = 0
    for t in range(cfg.trials):
        report = omission_attack_p5(cfg.n, cfg.m, cfg.perfect_detectors, camp.substream(t))
        detected += int(report.detected_at_commit)
        both_accepted += int(report.succeeded)
    params = (
        f"attack=omission;m={cfg.m};n={cfg.n};"
        f"perfect_detectors={'true' if cfg.perfect_detectors else 'false'}"
    )
    rows.append(_mc_row("attack", params, "detected_at_commit_rate", detected, cfg.trials))
    rows.append(_mc_row("attack", params, "both_openings_accepted_rate", both_accepted, cfg.trials))
    if cfg.check:
        if cfg.perfect_detectors and detected != cfg.trials:
            fails.append(f"omission: only {detected}/{cfg.trials} runs detected at commit")
        if not cfg.perfect_detectors and both_accepted != cfg.trials:
            fails.append(f"omission: only {both_accepted}/{cfg.trials} runs opened both ways")
    return rows, fails


def cmd_attack(cfg: argparse.Namespace) -> tuple[list[ResultRow], list[str]]:
    dispatch = {
        "usd": _attack_usd,
        "nogo": _attack_nogo,
        "probe-p3": _attack_probe_p3,
        "probe-p4": _attack_probe_p4,
        "omission": _attack_omission,
    }
    return dispatch[cfg.attack](cfg)


def _transcript_dir(cfg: argparse.Namespace, parser: argparse.ArgumentParser) -> Path:
    if cfg.out is None:
        parser.error(f"{cfg.command} requires --out DIR for the transcript files")
    return Path(cfg.out)


def _dump(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_commit(cfg: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    out = _transcript_dir(cfg, parser)
    protocol_id = _PROTOCOLS[cfg.protocol]
    check_theta(protocol_id, cfg.theta)
    out.mkdir(parents=True, exist_ok=True)
    rng = RngStream(cfg.seed, _STREAM_COMMIT)
    b = rng.bit()
    if protocol_id == PROTOCOL_P5:
        transcript = p5_commit(b, cfg.m, cfg.n, parity_function(cfg.n), rng)
    else:
        transcript = bc_commit_over_ot(
            b, cfg.l, cfg.n, protocol_id, rng, theta=cfg.theta, alpha=cfg.alpha
        )
    _dump(out / "sender.json", sender_state_to_dict(transcript.sender))
    _dump(out / "receiver.json", receiver_state_to_dict(transcript.receiver))
    print(f"committed under {transcript.sender.protocol_id}; transcripts in {out}")
    return 0


def cmd_open(cfg: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    out = _transcript_dir(cfg, parser)
    sender = sender_state_from_dict(json.loads((out / "sender.json").read_text()))
    msg = protocol_family(sender.protocol_id).open(sender)
    _dump(out / "open.json", open_message_to_dict(msg))
    print(f"open message written for {sender.protocol_id}")
    return 0


def cmd_verify(cfg: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    out = _transcript_dir(cfg, parser)
    receiver = receiver_state_from_dict(json.loads((out / "receiver.json").read_text()))
    msg = open_message_from_dict(json.loads((out / "open.json").read_text()))
    result = verify_from_states(receiver, msg)
    if result.accepted:
        print(f"accepted: committed bit {result.recovered_bit}")
        return 0
    print(f"rejected: {result.first_inconsistency}")
    return 3


# every flag: (argparse keyword arguments, default)
_FLAGS = {
    "--n": (dict(type=int, help="qubits per run / string length"), None),
    "--l": (dict(type=int, help="commitment rounds"), 8),
    "--m": (dict(type=int, help="strings per direct commitment"), 3),
    "--trials": (dict(type=int), 200),
    "--seed": (dict(type=int), None),
    "--theta": (dict(type=float), float(np.pi / 4)),
    "--alpha": (dict(type=str, help="rate margin for k"), "1/16"),
    "--protocol": (dict(choices=tuple(_PROTOCOLS)), None),
    "--attack": (dict(choices=_ATTACK_CHOICES), None),
    "--perfect-detectors": (dict(action="store_true"), False),
    "--out": (dict(), None),
    "--format": (dict(choices=("csv", "json")), "csv"),
    "--check": (dict(action="store_true"), False),
}

_CAMPAIGN_FLAGS = ("--n", "--trials", "--seed", "--theta", "--out", "--format", "--check")
_COMMAND_FLAGS = {
    "rot": _CAMPAIGN_FLAGS,
    "ot12": _CAMPAIGN_FLAGS + ("--alpha",),
    "commit": ("--protocol", "--n", "--l", "--m", "--seed", "--theta", "--alpha", "--out"),
    "open": ("--out",),
    "verify": ("--out",),
    "attack": _CAMPAIGN_FLAGS + ("--attack", "--alpha", "--m", "--perfect-detectors"),
}


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each subcommand takes only its flags."""
    parser = argparse.ArgumentParser(
        prog="qotlab",
        description="simulation experiments for quantum oblivious transfer and bit commitment",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, flags in _COMMAND_FLAGS.items():
        p = sub.add_parser(name)
        for flag in flags:
            kwargs, default = _FLAGS[flag]
            p.add_argument(flag, default=default, **kwargs)
    return parser


def _default_n(args: argparse.Namespace) -> int:
    if args.command == "attack":
        return _DEFAULT_N[args.attack]
    if args.command == "commit":
        return _DEFAULT_N["commit-p5" if args.protocol == "p5" else "commit-ot"]
    return _DEFAULT_N[args.command]


def _resolve_config(
    args: argparse.Namespace, parser: argparse.ArgumentParser
) -> argparse.Namespace:
    """Check the parsed flags and fill in n, seed and alpha where the command
    takes them; the namespace then holds exactly the command's settings."""
    if args.command == "attack" and args.attack is None:
        parser.error("attack requires --attack {usd|nogo|probe-p3|probe-p4|omission}")
    if args.command == "commit" and args.protocol not in _PROTOCOLS:
        parser.error(f"commit requires --protocol {{{'|'.join(_PROTOCOLS)}}}")
    flags = vars(args)
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
    if flags.get("n", 0) is None:
        args.n = _default_n(args)
    if any(flags.get(name, 1) < 1 for name in ("n", "l", "m", "trials")):
        parser.error("n, l, m and trials must be positive")
    if not 0.0 < flags.get("theta", np.pi / 4) <= np.pi / 2:
        parser.error("theta must lie in (0, pi/2]")
    return args


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _resolve_config(args, parser)
    try:
        if cfg.command == "commit":
            return cmd_commit(cfg, parser)
        if cfg.command == "open":
            return cmd_open(cfg, parser)
        if cfg.command == "verify":
            return cmd_verify(cfg, parser)
        table = {"rot": cmd_rot, "ot12": cmd_ot12, "attack": cmd_attack}
        rows, fails = table[cfg.command](cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = rows_to_csv(rows) if cfg.format == "csv" else rows_to_json(rows)
    if cfg.out is not None:
        Path(cfg.out).write_text(text)
    else:
        sys.stdout.write(text)
    for line in fails:
        print(f"CHECK FAIL: {line}", file=sys.stderr)
    return 3 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
