"""Command-line entry point: flags, exit codes, output formats, reproducibility."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats

from qotlab import bitcommit, cli
from qotlab.cli import CSV_HEADER, main
from qotlab.ot12 import IndexSets, k_of


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("QOT_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "qotlab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_header_and_row_order(capsys):
    assert main(["rot", "--n", "100", "--trials", "4", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    keys = [tuple(line.split(",")[:3]) for line in lines[1:]]
    assert keys == sorted(keys)


def test_rows_have_seven_columns(capsys):
    assert main(["ot12", "--n", "32", "--trials", "20", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    for line in out.strip().splitlines()[1:]:
        assert len(line.split(",")) == 7


def test_json_format(capsys):
    assert main(["rot", "--n", "64", "--trials", "3", "--seed", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc, list)
    assert {"experiment", "params", "metric", "value"} <= set(doc[0])


def test_output_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    assert main(["rot", "--n", "64", "--trials", "3", "--seed", "4", "--out", str(target)]) == 0
    capsys.readouterr()
    text = target.read_text()
    assert text.startswith(CSV_HEADER)


@pytest.mark.parametrize("target", ["missing/rows.csv", "."])
def test_an_unwritable_output_file_is_a_usage_error(target, tmp_path, capsys):
    # a directory that does not exist, and a path that is a directory
    out = tmp_path / target
    assert main(["rot", "--n", "8", "--trials", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


class TestExitCodes:
    def test_unknown_subcommand_is_a_usage_error(self):
        result = run_cli(["frobnicate"])
        assert result.returncode == 2

    def test_zero_trials_is_a_usage_error(self):
        result = run_cli(["rot", "--n", "64", "--trials", "0"])
        assert result.returncode == 2

    def test_bad_theta_is_a_usage_error(self):
        result = run_cli(["rot", "--n", "64", "--trials", "2", "--theta", "-1"])
        assert result.returncode == 2

    def test_attack_requires_a_strategy_name(self):
        result = run_cli(["attack", "--trials", "10"])
        assert result.returncode == 2

    def test_flag_of_another_command_is_a_usage_error(self):
        result = run_cli(["open", "--trials", "5", "--out", "x"])
        assert result.returncode == 2
        assert "--trials" in result.stderr

    @pytest.mark.parametrize(
        "flag", [["--protocol", "p5"], ["--seed", "21"]], ids=["protocol", "seed"]
    )
    @pytest.mark.parametrize("command", ["open", "verify"])
    def test_protocol_flag_on_open_or_verify_is_a_usage_error(self, command, flag, tmp_path):
        # the transcript files name their protocol and hold every random draw;
        # open and verify take neither a protocol nor a seed
        assert run_cli(["commit", "--protocol", "p2bc", "--out", str(tmp_path)]).returncode == 0
        result = run_cli([command, *flag, "--out", str(tmp_path)])
        assert result.returncode == 2
        assert flag[0] in result.stderr
        assert "Traceback" not in result.stderr

    def test_p5_commit_refuses_another_theta(self, tmp_path):
        # P5 encodes on the blinded channel, which fixes the angle like P3 and P4
        result = run_cli(
            ["commit", "--protocol", "p5", "--theta", "0.3", "--seed", "3", "--out", str(tmp_path)]
        )
        assert result.returncode == 2
        assert "commit p5 does not read --theta" in result.stderr
        assert not (tmp_path / "receiver.json").exists()

    def test_non_integer_seed_variable_is_a_usage_error(self):
        result = run_cli(["rot", "--n", "8", "--trials", "1"], env_extra={"QOT_SEED": "abc"})
        assert result.returncode == 2
        assert "QOT_SEED" in result.stderr
        assert "Traceback" not in result.stderr

    def test_commit_with_empty_index_sets_is_refused(self, tmp_path):
        result = run_cli(["commit", "--protocol", "p2bc", "--n", "4", "--out", str(tmp_path)])
        assert result.returncode == 2
        assert "k >= 1" in result.stderr
        assert not (tmp_path / "sender.json").exists()

    def test_check_passes_on_healthy_statistics(self):
        result = run_cli(["rot", "--n", "500", "--trials", "40", "--seed", "5", "--check"])
        assert result.returncode == 0, result.stderr


def test_identical_seeds_give_identical_bytes():
    args = ["ot12", "--n", "32", "--trials", "25", "--seed", "11"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_seed_environment_variable():
    args = ["rot", "--n", "100", "--trials", "5"]
    with_env = run_cli(args, env_extra={"QOT_SEED": "77"})
    with_flag = run_cli(args + ["--seed", "77"])
    different = run_cli(args + ["--seed", "78"])
    assert with_env.stdout == with_flag.stdout
    assert with_env.stdout != different.stdout


def test_flag_overrides_environment():
    args = ["rot", "--n", "100", "--trials", "5", "--seed", "42"]
    overridden = run_cli(args, env_extra={"QOT_SEED": "9999"})
    plain = run_cli(args)
    assert overridden.stdout == plain.stdout


@pytest.mark.parametrize("protocol", ["p2bc", "p3", "p4", "p5"])
def test_commit_open_verify_round_trip(protocol, tmp_path, capsys):
    workdir = str(tmp_path)
    common = ["--out", workdir]
    rounds = ["--m", "2"] if protocol == "p5" else ["--l", "2"]
    commit = ["commit", "--protocol", protocol, "--n", "8", *rounds]
    assert main([*commit, "--seed", "21", *common]) == 0
    assert main(["open", *common]) == 0
    assert main(["verify", *common]) == 0
    out = capsys.readouterr().out
    assert "accepted: committed bit" in out
    for name in ("sender.json", "receiver.json", "open.json"):
        assert (tmp_path / name).exists()


@pytest.mark.parametrize(
    "protocol, angle",
    [("p2bc", []), ("p2bc", ["--theta", "0.7"]), ("p3", []), ("p4", [])],
    ids=["p2bc", "p2bc-theta", "p3", "p4"],
)
def test_share_split_files_carry_one_header(protocol, angle, tmp_path, capsys):
    """A share-split commit's sender and receiver files agree on the
    protocol, the round count, n, k and the channel angle."""
    commit = ["commit", "--protocol", protocol, "--l", "3", *angle, "--seed", "26"]
    assert main([*commit, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    sender, receiver = (
        json.loads((tmp_path / name).read_text()) for name in ("sender.json", "receiver.json")
    )
    header = ("protocol_id", "l", "n", "k", "theta")
    assert {key: sender[key] for key in header} == {key: receiver[key] for key in header}
    assert sender["protocol_id"] == cli._PROTOCOLS[protocol]
    assert sender["l"] == len(sender["rounds"]) == len(receiver["rounds"]) == 3
    assert sender["theta"] == (float(angle[1]) if angle else float(np.pi / 4))


def test_tampered_opening_is_rejected(tmp_path, capsys):
    workdir = str(tmp_path)
    common = ["--out", workdir]
    assert main(
        ["commit", "--protocol", "p2bc", "--n", "8", "--l", "2", "--seed", "22", *common]
    ) == 0
    assert main(["open", *common]) == 0
    opening = json.loads((tmp_path / "open.json").read_text())
    opening["rounds"][0]["share0"] ^= 1
    (tmp_path / "open.json").write_text(json.dumps(opening))
    code = main(["verify", *common])
    out = capsys.readouterr().out
    assert code == 3
    assert "rejected" in out


def test_verify_rejects_an_opening_with_a_missing_field(tmp_path):
    workdir = str(tmp_path)
    common = ["--out", workdir]
    result = run_cli(
        ["commit", "--protocol", "p2bc", "--n", "8", "--l", "2", "--seed", "23", *common]
    )
    assert result.returncode == 0
    assert run_cli(["open", *common]).returncode == 0
    opening = json.loads((tmp_path / "open.json").read_text())
    del opening["rounds"][0]["share0"]
    (tmp_path / "open.json").write_text(json.dumps(opening))
    result = run_cli(["verify", *common])
    assert result.returncode == 2
    assert "rounds[0].share0" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("protocol", ["p2bc", "p5"])
@pytest.mark.parametrize("name", ["receiver.json", "open.json"])
def test_verify_names_every_missing_or_mistyped_field(protocol, name, tmp_path, capsys):
    """Each field of a valid transcript, deleted or replaced by a value of
    the wrong type, is refused with a usage error that names it."""
    workdir = str(tmp_path)
    common = ["--out", workdir]
    rounds = ["--m", "2"] if protocol == "p5" else ["--l", "2"]
    commit = ["commit", "--protocol", protocol, "--n", "8", *rounds]
    assert main([*commit, "--seed", "24", *common]) == 0
    assert main(["open", *common]) == 0
    original = json.loads((tmp_path / name).read_text())

    def fields(doc, prefix=""):
        for key, value in doc.items():
            yield prefix, key
            if key == "rounds":
                yield from fields(value[0], prefix="rounds[0].")

    for prefix, key in fields(original):
        for mutation in ("delete", "retype"):
            doc = json.loads(json.dumps(original))
            target = doc["rounds"][0] if prefix else doc
            if mutation == "delete":
                del target[key]
            else:
                target[key] = {"bad": True}
            (tmp_path / name).write_text(json.dumps(doc))
            capsys.readouterr()
            assert main(["verify", *common]) == 2, (mutation, prefix + key)
            assert prefix + key in capsys.readouterr().err, (mutation, prefix + key)


def test_verify_without_files_is_a_usage_error(tmp_path):
    result = run_cli(["verify", "--out", str(tmp_path)])
    assert result.returncode == 2


def test_abort_rate_exact_is_never_negative(capsys):
    """Far below 1e-16 the abort rate keeps its relative accuracy: it is the
    lower tail itself, not 1 - p1."""
    assert main(["ot12", "--n", "20000", "--trials", "1", "--seed", "33"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = {line.split(",")[2]: float(line.split(",")[3]) for line in lines[1:] if ";n=20000;" in line}
    assert rows["abort_rate_exact"] >= 0.0
    expected = scipy.stats.binom.cdf(k_of(20000) - 1, 20000, 0.25)
    assert 0.0 < expected < 1e-90
    assert rows["abort_rate_exact"] == pytest.approx(expected, rel=1e-10)
    assert rows["p1_exact"] == 1.0


def test_abort_rate_exact_follows_theta():
    # at theta = 0.5 the honest rate is sin(0.5)**2 / 2, about 0.115, not 1/4
    result = run_cli(["ot12", "--n", "256", "--trials", "200", "--theta", "0.5", "--check"])
    assert result.returncode == 0, result.stderr


def test_usd_abort_rate_has_an_exact_twin(capsys):
    """The discriminating receiver aborts when fewer than k of its qubits come
    out conclusive, with probability P[Bin(n, 1 - cos theta) < k]."""
    argv = ["attack", "--attack", "usd", "--n", "64", "--trials", "400", "--seed", "4"]
    assert main([*argv, "--theta", "0.6", "--check"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = {line.split(",")[2]: float(line.split(",")[3]) for line in lines[1:]}
    expected = scipy.stats.binom.cdf(k_of(64) - 1, 64, 1 - math.cos(0.6))
    assert rows["abort_rate_exact"] == pytest.approx(expected, rel=1e-9)
    assert abs(rows["abort_rate"] - expected) < 5 * math.sqrt(expected * (1 - expected) / 400)


def test_curve_rows_follow_theta(capsys):
    """At theta = 1.2 the curve row at the run's n repeats the run's exact tails."""
    assert main(["ot12", "--n", "256", "--trials", "5", "--seed", "7", "--theta", "1.2"]) == 0
    rows = {}
    for line in capsys.readouterr().out.strip().splitlines()[1:]:
        experiment, params, metric, value = line.split(",")[:4]
        rows[experiment, params, metric] = value
    run = ("ot12", "alpha=1/16;n=256;theta=1.2")
    curve = ("ot12-curve", "alpha=1/16;n=256;theta=1.2")
    for metric in ("p1_exact", "p2_exact"):
        assert rows[(*curve, metric)] == rows[(*run, metric)]
    assert float(rows[(*run, "p2_exact")]) == 1.0
    curve_params = {params for experiment, params, _ in rows if experiment == "ot12-curve"}
    assert len(curve_params) == 5
    assert all(params.endswith(";theta=1.2") for params in curve_params)


@pytest.mark.parametrize("n", [64, 100])
def test_ot12_computes_each_tail_once(n, monkeypatch, capsys):
    """Whether or not the run's n lies on the curve, each (n, tail) is
    computed once per call."""
    calls = []
    for name in ("p1_exact", "p2_exact"):
        tail = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda m, *rest, _tail=tail, _name=name: calls.append((_name, m)) or _tail(m, *rest)
        )
    assert main(["ot12", "--n", str(n), "--trials", "2", "--seed", "3"]) == 0
    expected = {(name, m) for name in ("p1_exact", "p2_exact") for m in (n, *cli.CURVE_N_LIST)}
    assert sorted(calls) == sorted(expected)


def test_attack_nogo_reports_exact_numbers(capsys):
    assert main(["attack", "--attack", "nogo", "--n", "4"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    metrics = {line.split(",")[2]: float(line.split(",")[3]) for line in lines[1:]}
    assert {"fidelity", "achieved_overlap", "detection_probability"} <= set(metrics)
    assert metrics["detection_probability"] == pytest.approx(
        1 - metrics["fidelity"] ** 2, abs=1e-9
    )


def test_attack_usd_with_check(capsys):
    code = main(
        ["attack", "--attack", "usd", "--n", "64", "--trials", "60", "--seed", "31", "--check"]
    )
    assert code == 0
    capsys.readouterr()


def test_attack_omission_perfect_flag(capsys):
    assert main(
        [
            "attack",
            "--attack",
            "omission",
            "--n",
            "6",
            "--m",
            "2",
            "--trials",
            "15",
            "--seed",
            "32",
            "--perfect-detectors",
            "--check",
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "detected_at_commit_rate" in out


def _commit_and_open(tmp_path, seed):
    common = ["--out", str(tmp_path)]
    result = run_cli(
        ["commit", "--protocol", "p2bc", "--l", "2", "--n", "16", "--seed", str(seed), *common]
    )
    assert result.returncode == 0
    assert run_cli(["open", *common]).returncode == 0
    return common


def test_verify_refuses_an_unknown_protocol_id(tmp_path):
    common = _commit_and_open(tmp_path, 21)
    for name in ("sender.json", "receiver.json", "open.json"):
        doc = json.loads((tmp_path / name).read_text())
        doc["protocol_id"] = "bogus"
        (tmp_path / name).write_text(json.dumps(doc))

    def refused(command):
        result = run_cli([command, *common])
        assert result.returncode == 2, (command, result.stdout)
        assert "protocol_id" in result.stderr and "bogus" in result.stderr
        assert "Traceback" not in result.stderr

    refused("open")  # reads sender.json
    refused("verify")  # reads receiver.json first
    receiver = json.loads((tmp_path / "receiver.json").read_text())
    receiver["protocol_id"] = "P2-BC"
    (tmp_path / "receiver.json").write_text(json.dumps(receiver))
    refused("verify")  # now open.json is the bogus one


def _set_cell(cells: str, i: int, value: str) -> str:
    return cells[:i] + value + cells[i + 1:]


def test_verify_refuses_a_forged_announcement(tmp_path):
    """Round 0 announces a fourth I cell at k = 3, at a conclusive position,
    with the opening and the ciphertext adjusted to match: every check of
    the opening passes, so only the reader can refuse it."""
    common = _commit_and_open(tmp_path, 22)
    receiver = json.loads((tmp_path / "receiver.json").read_text())
    opening = json.loads((tmp_path / "open.json").read_text())
    honest = bitcommit.receiver_state_from_dict(receiver)
    rnd, orn = receiver["rounds"][0], opening["rounds"][0]
    assert receiver["k"] == 3
    # the masked slot: X (c0, share0) when m = 0, Y (c1, share1) when m = 1
    slot = rnd["m"]
    cells = zip(rnd["sets"], rnd["conclusive"])
    extra = next(i for i, (a, c) in enumerate(cells) if a == "-" and c != "-")
    val = int(rnd["conclusive"][extra])
    rnd["sets"] = _set_cell(rnd["sets"], extra, "xy"[slot])
    side = ("declared_x", "declared_y")[slot]
    orn[side] = sorted([*orn[side], {"pos": extra + 1, "val": val}], key=lambda d: d["pos"])
    rnd[f"c{slot}"] ^= val
    # built past the reader, the forged round verifies
    first = honest.rounds[0]
    slots = [first.sets.x_set, first.sets.y_set]
    slots[slot] = tuple(sorted((*slots[slot], extra + 1)))
    sets = IndexSets.from_slots(*slots, first.sets.m)
    forged = dataclasses.replace(first, sets=sets, c0=rnd["c0"], c1=rnd["c1"])
    state = dataclasses.replace(honest, rounds=(forged, *honest.rounds[1:]))
    assert bitcommit.bc_verify(state, bitcommit.open_message_from_dict(opening)).accepted
    (tmp_path / "receiver.json").write_text(json.dumps(receiver))
    (tmp_path / "open.json").write_text(json.dumps(opening))
    result = run_cli(["verify", *common])
    assert result.returncode == 2, result.stdout
    counts = ("4 and 3", "3 and 4")[slot]
    assert result.stderr == (
        "error: field 'rounds[0].sets' is malformed: "
        f"expected k = 3 cells each of 'x' and 'y', got {counts}\n"
    )


def _set_cell(cells: str, i: int, value: str) -> str:
    return cells[:i] + value + cells[i + 1:]


def _first_cell(cells: str, want: str) -> int:
    return next(i for i, c in enumerate(cells) if c in want)


def _recelled(old: str, new: str):
    """A mutation of a round's "sets" that makes its first `old` cell `new`."""
    return lambda sets, rnd: _set_cell(sets, _first_cell(sets, old), new)


def _moved_i_cell(sets: str, rnd) -> str:
    """One I cell moved to a position the receiver did not learn; X is I
    when m = 0."""
    i_cell = "xy"[rnd["m"]]
    sets = _set_cell(sets, _first_cell(sets, i_cell), "-")
    cells = zip(sets, rnd["conclusive"])
    return _set_cell(sets, next(i for i, (a, c) in enumerate(cells) if a == c == "-"), i_cell)


_SETS = "'rounds[1].sets' is malformed: "
_K_CELLS = _SETS + "expected k = 3 cells each of 'x' and 'y', got "


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (lambda sets, rnd: sets + "-", _SETS + "expected a string of n = 16 cells, got 17"),
        (lambda sets, rnd: sets[1:], _SETS + "expected a string of n = 16 cells, got 15"),
        (lambda sets, rnd: list(sets), _SETS + "expected a string of n = 16 cells, got list"),
        (_recelled("x", "z"), _SETS + "cell 'z' is not one of 'xy-'"),
        (_recelled("-", "1"), _SETS + "cell '1' is not one of 'xy-'"),
        (_recelled("y", "-"), _K_CELLS + "3 and 2"),
        (_recelled("y", "x"), _K_CELLS + "4 and 2"),
        (_moved_i_cell, "'rounds[1].conclusive' is malformed: announced I position"),
    ],
    ids=["long", "short", "list", "foreign-cell", "bit-cell", "k-short", "k-moved", "i-unlearned"],
)
def test_verify_refuses_a_malformed_announcement(mutate, reason, tmp_path, capsys):
    """A round's "sets" is one string of n cells, k of them "x", k "y" and
    the rest "-", and every cell of I must be conclusive."""
    common = ["--out", str(tmp_path)]
    assert main(
        ["commit", "--protocol", "p2bc", "--l", "2", "--n", "16", "--seed", "25", *common]
    ) == 0
    assert main(["open", *common]) == 0
    receiver = json.loads((tmp_path / "receiver.json").read_text())
    rnd = receiver["rounds"][1]
    rnd["sets"] = mutate(rnd["sets"], rnd)
    (tmp_path / "receiver.json").write_text(json.dumps(receiver))
    capsys.readouterr()
    assert main(["verify", *common]) == 2
    assert reason in capsys.readouterr().err


_CONCLUSIVE = "'rounds[0].conclusive' is malformed: "


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (lambda cells: cells + "1", _CONCLUSIVE + "expected a string of n = 16 cells, got 17"),
        (lambda cells: cells[:-1], _CONCLUSIVE + "expected a string of n = 16 cells, got 15"),
        (
            lambda cells: _set_cell(cells, _first_cell(cells, "01"), "7"),
            _CONCLUSIVE + "cell '7' is not one of '01-'",
        ),
        (
            lambda cells: _set_cell(cells, _first_cell(cells, "-"), "?"),
            _CONCLUSIVE + "cell '?' is not one of '01-'",
        ),
        (lambda cells: "-" * len(cells), _CONCLUSIVE + "announced I position"),
    ],
    ids=["past-n", "short", "not-a-bit", "bad-character", "emptied"],
)
def test_verify_refuses_a_forged_conclusive_record(mutate, reason, tmp_path, capsys):
    """The receiver file's decoded cells hold one bit or "-" per position,
    and every I position must be conclusive."""
    common = ["--out", str(tmp_path)]
    assert main(
        ["commit", "--protocol", "p2bc", "--l", "2", "--n", "16", "--seed", "3", *common]
    ) == 0
    assert main(["open", *common]) == 0
    receiver = json.loads((tmp_path / "receiver.json").read_text())
    rnd = receiver["rounds"][0]
    rnd["conclusive"] = mutate(rnd["conclusive"])
    (tmp_path / "receiver.json").write_text(json.dumps(receiver))
    capsys.readouterr()
    assert main(["verify", *common]) == 2
    assert reason in capsys.readouterr().err


# commit flags per protocol; a transcript name without a protocol is p2bc's
_COUNTED_COMMITS = {"p2bc": ["--l", "2", "--n", "16"], "p5": []}


@pytest.mark.parametrize(
    "name, field, value, reason",
    [
        (
            "receiver.json", "k", 2,
            "'rounds[0].sets' is malformed: expected k = 2 cells each of 'x' and 'y', got 3 and 3",
        ),
        ("receiver.json", "l", 3, "field 'rounds' holds 2 rounds, but field 'l' is 3"),
        ("sender.json", "l", 1, "field 'rounds' holds 2 rounds, but field 'l' is 1"),
        ("sender.json", "n", 8, "'rounds[0].r' is malformed: expected a string of n = 8 cells, got 16"),
        ("p5/sender.json", "m", 7, "field 'strings' holds 3 strings, but field 'm' is 7"),
        ("p5/sender.json", "n", 6, "field 'strings[0]' has length 8, but field 'n' is 6"),
    ],
)
def test_transcript_counts_must_agree(name, field, value, reason, tmp_path, capsys):
    protocol, _, name = name.rpartition("/")
    protocol = protocol or "p2bc"
    common = ["--out", str(tmp_path)]
    assert main(
        ["commit", "--protocol", protocol, *_COUNTED_COMMITS[protocol], "--seed", "25", *common]
    ) == 0
    assert main(["open", *common]) == 0
    doc = json.loads((tmp_path / name).read_text())
    doc[field] = value
    (tmp_path / name).write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["open" if name == "sender.json" else "verify", *common]) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (lambda sets: sets + "-", "expected a string of n = 16 cells, got 17"),
        (
            lambda sets: sets.replace("y", "x", 1),
            "expected k = 3 cells each of 'x' and 'y', got 4 and 2",
        ),
        (lambda sets: None, "expected a string of n = 16 cells, got NoneType"),
    ],
    ids=["long", "k-moved", "null"],
)
def test_open_refuses_a_malformed_sender_announcement(mutate, reason, tmp_path, capsys):
    """The sender file's "sets" is read by the receiver file's reader."""
    common = ["--out", str(tmp_path)]
    assert main(
        ["commit", "--protocol", "p2bc", "--l", "2", "--n", "16", "--seed", "25", *common]
    ) == 0
    sender = json.loads((tmp_path / "sender.json").read_text())
    sender["rounds"][0]["sets"] = mutate(sender["rounds"][0]["sets"])
    (tmp_path / "sender.json").write_text(json.dumps(sender))
    capsys.readouterr()
    assert main(["open", *common]) == 2
    assert capsys.readouterr().err == f"error: field 'rounds[0].sets' is malformed: {reason}\n"


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("sender.json", ("bit",), 9),
        ("sender.json", ("rounds", 0, "share0"), 7),
        ("sender.json", ("rounds", 1, "share1"), -1),
        ("sender.json", ("rounds", 0, "c0"), 2),
        ("sender.json", ("rounds", 1, "c1"), 2),
        ("receiver.json", ("rounds", 0, "m"), 2),
        ("receiver.json", ("rounds", 0, "c0"), 2),
        ("receiver.json", ("rounds", 1, "c1"), -1),
        ("receiver.json", ("rounds", 1, "received_share"), 3),
    ],
    ids=[
        "sender-bit", "sender-share0", "sender-share1", "sender-c0", "sender-c1",
        "receiver-m", "receiver-c0", "receiver-c1", "receiver-received_share",
    ],
)
def test_a_share_split_field_that_is_not_a_bit_is_refused(name, path, value, tmp_path, capsys):
    """Every bit of a share-split sender or receiver file is read as a bit:
    unchecked, a share of 7 would be declared at open, and a ciphertext of 2
    would be blamed on the opening."""
    common = ["--out", str(tmp_path)]
    assert main(
        ["commit", "--protocol", "p2bc", "--l", "2", "--n", "16", "--seed", "25", *common]
    ) == 0
    assert main(["open", *common]) == 0
    doc = json.loads((tmp_path / name).read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    (tmp_path / name).write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["open" if name == "sender.json" else "verify", *common]) == 2
    field = path[0] if len(path) == 1 else f"rounds[{path[1]}].{path[2]}"
    assert capsys.readouterr().err == (
        f"error: field '{field}' is malformed: expected a bit, got {value}\n"
    )


@pytest.mark.parametrize(
    "path, value, got",
    [
        (("bit",), 9, "9"),
        (("bit",), True, "bool"),
        (("strings", 1, 2), 2, "2"),
        (("strings", 0, 0), -1, "-1"),
        (("strings", 2, 7), 0.0, "float"),
    ],
    ids=["bit", "bit-bool", "strings-two", "strings-negative", "strings-float"],
)
def test_a_p5_sender_field_that_is_not_a_bit_is_refused(path, value, got, tmp_path, capsys):
    """The P5 sender file's committed bit and every cell of its strings are
    read as bits: unchecked, `open` would declare them in open.json."""
    common = ["--out", str(tmp_path)]
    assert main(["commit", "--protocol", "p5", "--seed", "3", *common]) == 0
    doc = json.loads((tmp_path / "sender.json").read_text())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    (tmp_path / "sender.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["open", *common]) == 2
    assert capsys.readouterr().err == (
        f"error: field '{path[0]}' is malformed: expected a bit, got {got}\n"
    )
    assert not (tmp_path / "open.json").exists()


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (lambda cells: cells + "-", "expected a string of n = 8 cells, got 9"),
        (lambda cells: cells[:-1], "expected a string of n = 8 cells, got 7"),
        (lambda cells: "perp" + cells[4:], "cell 'p' is not one of '01-'"),
        (lambda cells: list(cells), "expected a string of n = 8 cells, got list"),
        (lambda cells: None, "expected a string of n = 8 cells, got NoneType"),
    ],
    ids=["long", "short", "bad-character", "list", "null"],
)
def test_verify_refuses_a_forged_p5_conclusive_string(mutate, reason, tmp_path, capsys):
    """A P5 receiver file holds one string of n decoded cells per string the
    committer encoded; anything else is refused, naming the string's index."""
    common = ["--out", str(tmp_path)]
    assert main(["commit", "--protocol", "p5", "--seed", "3", *common]) == 0
    assert main(["open", *common]) == 0
    receiver = json.loads((tmp_path / "receiver.json").read_text())
    receiver["conclusive"][1] = mutate(receiver["conclusive"][1])
    (tmp_path / "receiver.json").write_text(json.dumps(receiver))
    capsys.readouterr()
    assert main(["verify", *common]) == 2
    assert capsys.readouterr().err == f"error: field 'conclusive[1]' is malformed: {reason}\n"


_NO_N = "field 'n' is malformed: expected a count of at least 1, got 0"


@pytest.mark.parametrize(
    "protocol, name, field, value, reason",
    [
        ("p2bc", "receiver.json", "n", 0, _NO_N),
        ("p5", "receiver.json", "n", 0, _NO_N),
        (
            "p5", "sender.json", "function", "majority",
            "field 'function' is malformed: unknown boolean function 'majority'",
        ),
        (
            "p5", "receiver.json", "function", "majority",
            "field 'function' is malformed: unknown boolean function 'majority'",
        ),
    ],
)
def test_every_header_refusal_names_its_field(
    protocol, name, field, value, reason, tmp_path, capsys
):
    """A string length of 0 or an unknown function is refused as the header
    field that holds it, not as the round or arity it would break; the
    sender files' `n` is refused with the other counts below."""
    common = ["--out", str(tmp_path)]
    assert main(["commit", "--protocol", protocol, "--seed", "3", *common]) == 0
    assert main(["open", *common]) == 0
    doc = json.loads((tmp_path / name).read_text())
    doc[field] = value
    (tmp_path / name).write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["open" if name == "sender.json" else "verify", *common]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"


# a round that announces nothing: with k = 0 every check of the opening holds
_EMPTY_ROUND = {
    "m": 0, "sets": "-" * 16, "conclusive": "-" * 16, "c0": 1, "c1": 0, "received_share": 1
}
_EMPTY_OPEN_ROUND = {"share0": 1, "share1": 0, "declared_x": [], "declared_y": []}
_SHARE_SPLIT = {"protocol_id": "P2-BC", "n": 16, "theta": math.pi / 4}


@pytest.mark.parametrize(
    "field, receiver, opening",
    [
        (
            "k",
            {**_SHARE_SPLIT, "l": 1, "k": 0, "rounds": [_EMPTY_ROUND]},
            {"protocol_id": "P2-BC", "rounds": [_EMPTY_OPEN_ROUND]},
        ),
        (
            "l",
            {**_SHARE_SPLIT, "l": 0, "k": 3, "rounds": []},
            {"protocol_id": "P2-BC", "rounds": []},
        ),
        (
            "m",
            {"protocol_id": "P5", "m": 0, "n": 8, "function": "parity", "conclusive": []},
            {"protocol_id": "P5", "bit": 1, "strings": []},
        ),
    ],
)
def test_verify_refuses_a_transcript_that_commits_nothing(field, receiver, opening, tmp_path):
    """Forged transcripts with zero rounds, an empty announcement or no
    strings leave the opening nothing to contradict; the reader refuses the
    count, naming it, instead of accepting whatever bit the opening claims."""
    (tmp_path / "receiver.json").write_text(json.dumps(receiver))
    (tmp_path / "open.json").write_text(json.dumps(opening))
    result = run_cli(["verify", "--out", str(tmp_path)])
    assert result.returncode == 2, result.stdout
    assert result.stderr == (
        f"error: field '{field}' is malformed: expected a count of at least 1, got 0\n"
    )


@pytest.mark.parametrize(
    "protocol, field", [("p2bc", "k"), ("p2bc", "l"), ("p2bc", "n"), ("p5", "m"), ("p5", "n")]
)
def test_open_refuses_a_sender_that_commits_nothing(protocol, field, tmp_path, capsys):
    common = ["--out", str(tmp_path)]
    assert main(["commit", "--protocol", protocol, "--seed", "25", *common]) == 0
    sender = json.loads((tmp_path / "sender.json").read_text())
    sender[field] = 0
    (tmp_path / "sender.json").write_text(json.dumps(sender))
    capsys.readouterr()
    assert main(["open", *common]) == 2
    assert f"field '{field}' is malformed: expected a count of at least 1, got 0" in (
        capsys.readouterr().err
    )


_THETA = "field 'theta' is malformed: "
_RANGE = _THETA + "theta must lie in (0, pi/2], got "
_FIXED = _THETA + "the pair and blinded channels fix theta at pi/4, got "


@pytest.mark.parametrize(
    "protocol, name, theta, reason",
    [
        ("p2bc", "receiver.json", math.nan, _RANGE + "nan"),
        ("p2bc", "receiver.json", math.inf, _RANGE + "inf"),
        ("p2bc", "receiver.json", 0.0, _RANGE + "0.0"),
        ("p2bc", "receiver.json", 2.0, _RANGE + "2.0"),
        ("p2bc", "sender.json", -5.0, _RANGE + "-5.0"),
        ("p3", "receiver.json", 0.7, _FIXED + "0.7"),
        ("p4", "sender.json", 0.7, _FIXED + "0.7"),
        ("p3", "receiver.json", 10**400, _THETA + "expected a number, got an integer too large for a float"),
    ],
    ids=["nan", "inf", "zero", "past-pi/2", "negative", "p3-off-pi/4", "p4-off-pi/4", "400-digits"],
)
def test_a_transcript_angle_the_channel_cannot_run_at_is_refused(
    protocol, name, theta, reason, tmp_path, capsys
):
    """theta is read as bc_commit_over_ot takes it: finite, in (0, pi/2],
    and pi/4 on the pair and blinded channels. Unchecked, a NaN receiver
    angle would verify, a negative sender angle would open, and a 400-digit
    integer would end in an OverflowError."""
    common = ["--out", str(tmp_path)]
    assert main(["commit", "--protocol", protocol, "--seed", "3", *common]) == 0
    assert main(["open", *common]) == 0
    doc = json.loads((tmp_path / name).read_text())
    doc["theta"] = theta
    (tmp_path / name).write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["open" if name == "sender.json" else "verify", *common]) == 2
    assert capsys.readouterr().err == f"error: {reason}\n"


def test_a_p5_receiver_with_a_huge_string_count_is_refused(tmp_path, capsys):
    """The string count is checked without building anything m long, which
    for m = 10**30 would end in an OverflowError."""
    common = ["--out", str(tmp_path)]
    assert main(["commit", "--protocol", "p5", "--seed", "3", *common]) == 0
    assert main(["open", *common]) == 0
    doc = json.loads((tmp_path / "receiver.json").read_text())
    doc["m"] = 10**30
    (tmp_path / "receiver.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", *common]) == 2
    assert capsys.readouterr().err == (
        f"error: field 'conclusive' holds 3 strings, but field 'm' is {10**30}\n"
    )


@pytest.mark.parametrize(
    "command, name",
    [("verify", "receiver.json"), ("verify", "open.json"), ("open", "sender.json")],
)
def test_a_deeply_nested_transcript_is_a_usage_error(command, name, tmp_path):
    """The JSON decoder gives up on deep nesting with a RecursionError; the
    command refuses the file like any other malformed transcript."""
    common = ["--out", str(tmp_path)]
    assert main(["commit", "--protocol", "p2bc", "--seed", "25", *common]) == 0
    assert main(["open", *common]) == 0
    depth = 200_000
    (tmp_path / name).write_text("[" * depth + "]" * depth)
    result = run_cli([command, *common])
    assert result.returncode == 2, result.stdout
    assert result.stderr == f"error: {name} is nested too deeply to read\n"


def _run(argv, capsys):
    """In-process run: (exit code, stdout, stderr); a usage error is exit 2."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


_OT12 = ["ot12", "--n", "64", "--trials", "100", "--seed", "2"]
_PROBE_P4 = ["attack", "--attack", "probe-p4", "--trials", "100", "--seed", "2"]


@pytest.mark.parametrize(
    "argv, name, fake, label, spread",
    [
        (_OT12, "abort_rate_exact", lambda n, rate, alpha: 0.5,
         "ot12: abort rate", "sigma 0.05, z -"),
        (_OT12, "abort_rate_exact", lambda n, rate, alpha: 1.0,
         "ot12: abort rate", "sigma 0, gap -"),
        (_PROBE_P4, "p4_probe_detection_probability", lambda alphas: np.full(len(alphas), 0.5),
         "probe-p4: per-qubit detection", "sigma 0.025, z -"),
    ],
    ids=["z", "sigma-zero", "probe-p4-twin"],
)
def test_a_failing_check_reports_its_spread(argv, name, fake, label, spread, monkeypatch, capsys):
    """A wrong exact value (the abort rate's twin, or the probe-p4 twin)
    fails the check: the failing line carries sigma and z, or the bare gap
    when sigma is 0."""
    monkeypatch.setattr(cli, name, fake)
    code, out, err = _run([*argv, "--check"], capsys)
    assert code == 3
    (line,) = [line for line in err.splitlines() if line.startswith(f"CHECK FAIL: {label}")]
    assert spread in line
    assert (" z " in line) == ("sigma 0," not in spread)
    # without --check the same run passes, prints the same rows and no CHECK line
    assert _run(argv, capsys) == (0, out, "")


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 9, 16, 17])
def test_probe_run_success_counts_the_rows_without_a_detection(n):
    """The column OR counts the same undetected runs as a row-wise any(),
    whether a row is whole 8-byte words, shorter, or words and cells after."""
    rng = np.random.default_rng(n)
    # sparse hits leave many rows clear; one hit in each column's own row
    detected = rng.random((500, n)) < 0.2 / n
    detected[np.arange(n), np.arange(n)] = True
    rows, _ = cli._probe_rows("probe", detected, 0.2 / n)
    (success,) = [r for r in rows if r.metric == "run_success"]
    assert success.value == np.count_nonzero(~detected.any(axis=1)) / len(detected)


_CHECKED = [key for key, e in cli.EXPERIMENTS.items() if "--check" in e.flags]


@pytest.mark.parametrize("key", _CHECKED, ids=["-".join(filter(None, key)) for key in _CHECKED])
def test_every_check_passes_at_its_defaults(key, capsys):
    """Each campaign's measured rates agree with their exact twins at the
    experiment's default sizes."""
    code, _, err = _run([*_experiment_argv(*key, None), "--seed", "5", "--check"], capsys)
    assert code == 0, err


# a value other than the default for each flag but --n; none for a store_true flag
_OTHER = {
    "--l": ["2"],
    "--m": ["2"],
    "--trials": ["3"],
    "--seed": ["5"],
    "--theta": ["0.7"],
    "--alpha": ["1/8"],
    "--perfect-detectors": [],
    "--check": [],
}


def _subcommand_flags(command):
    return {flag for (c, _), e in cli.EXPERIMENTS.items() if c == command for flag in e.flags}


def _experiment_argv(command, choice, out):
    argv = [command, *([cli._SELECTORS[command], choice] if choice else [])]
    if cli.EXPERIMENTS[command, choice].flags.get("--out", None) is not None:
        argv += ["--out", str(out)]  # the transcript commands require a directory
    return argv


def _other_value(flag, experiment):
    return [str(experiment.flags["--n"] - 2)] if flag == "--n" else _OTHER[flag]


_UNREAD = [
    (key, flag)
    for key, e in cli.EXPERIMENTS.items()
    for flag in sorted(_subcommand_flags(key[0]) - set(e.flags))
]


@pytest.mark.parametrize("key, flag", _UNREAD, ids=[f"{c}-{x}{f}" for (c, x), f in _UNREAD])
def test_an_unread_flag_is_a_usage_error(key, flag, tmp_path, capsys):
    out = tmp_path / "t"
    code, _, err = _run([*_experiment_argv(*key, out), flag, *_OTHER[flag]], capsys)
    assert code == 2
    assert f"does not read {flag}" in err
    assert "Traceback" not in err
    assert not out.exists()


_READ = [
    (key, flag)
    for key, e in cli.EXPERIMENTS.items()
    for flag in e.flags
    if flag not in ("--out", "--format", "--check")
    # every omission run is caught at commit (perfect detectors) or opens
    # both ways (imperfect ones), so its rows are the same at every seed
    and (key, flag) != (("attack", "omission"), "--seed")
]


@pytest.mark.parametrize("key, flag", _READ, ids=[f"{c}-{x}{f}" for (c, x), f in _READ])
def test_a_read_flag_changes_the_output(key, flag, tmp_path, capsys, monkeypatch):
    """Each flag an experiment reads changes its rows or transcripts at a
    non-default value. Runs take 2 trials, except when --trials is under
    test (default against 3) or --seed is (at 2 trials the rates can tie)."""
    monkeypatch.delenv("QOT_SEED", raising=False)
    experiment = cli.EXPERIMENTS[key]
    few = "--trials" in experiment.flags and flag not in ("--trials", "--seed")
    small = ["--trials", "2"] if few else []

    def run(name, extra):
        out = tmp_path / name
        code, stdout, err = _run([*_experiment_argv(*key, out), *small, *extra], capsys)
        if key[0] != "commit":
            return code, stdout, err
        files = [(out / f).read_bytes() for f in ("sender.json", "receiver.json") if code == 0]
        return code, files, err

    base = run("base", [])
    assert base[0] == 0, base[2]
    changed = run("changed", [flag, *_other_value(flag, experiment)])
    assert changed[0] == 0, changed[2]
    assert changed[1] != base[1]


def test_the_settable_flags_are_counted():
    """Every flag of every experiment, once per experiment that reads it; a
    flag added or dropped has to change this count on purpose."""
    assert sum(len(e.flags) for e in cli.EXPERIMENTS.values()) == 69


@pytest.mark.parametrize(
    "argv, name, calls",
    [
        (["ot12", "--n", "64", "--trials", "12"], "run_ot12", 12),
        (["attack", "--attack", "usd", "--n", "64", "--trials", "10"], "run_ot12", 10),
        (["rot", "--n", "64", "--trials", "6"], "run_rot", 12),
    ],
)
def test_transfer_campaigns_call_the_module_global_once_per_trial(
    argv, name, calls, monkeypatch, capsys
):
    """Callers that wrap `cli.run_ot12` or `cli.run_rot` see every trial:
    one call per trial, and for `rot` one per trial per receiver strategy."""
    seen = []
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        seen.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    assert main([*argv, "--seed", "5"]) == 0
    capsys.readouterr()
    assert len(seen) == calls
    if name == "run_rot":
        strategies = [args[1] for args in seen]
        assert strategies.count("honest") == strategies.count("usd") == calls // 2
