"""Command-line entry point: flags, exit codes, output formats, reproducibility."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.stats

from qotlab import cli
from qotlab.cli import CSV_HEADER, main
from qotlab.ot12 import SecurityEstimate, k_of


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
    assert main(["ot12", "--n", "20000", "--trials", "1", "--seed", "33"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = {line.split(",")[2]: float(line.split(",")[3]) for line in lines[1:] if ";n=20000;" in line}
    assert rows["abort_rate_exact"] == 0.0
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


def test_verify_refuses_a_forged_announcement(tmp_path):
    """Round 0 announces I = [11, 7, 4, 11] at k = 3, with the opening and
    the ciphertext adjusted to match: every check of the opening passes (the
    repeated 11 cancels out of the mask), so only the reader can refuse it."""
    common = _commit_and_open(tmp_path, 21)
    receiver = json.loads((tmp_path / "receiver.json").read_text())
    opening = json.loads((tmp_path / "open.json").read_text())
    rnd, orn = receiver["rounds"][0], opening["rounds"][0]
    assert receiver["k"] == 3
    known = {c["pos"]: c["val"] for c in rnd["conclusive"]}
    rnd["i_set"] = [11, 7, 4, 11]
    declared = [{"pos": p, "val": known.get(p, 0)} for p in rnd["i_set"]]
    # the masked slot: X (c0, share0) when m = 0, Y (c1, share1) when m = 1
    slot = rnd["m"]
    orn[("declared_x", "declared_y")[slot]] = declared
    rnd[f"c{slot}"] = orn[f"share{slot}"] ^ declared[1]["val"] ^ declared[2]["val"]
    (tmp_path / "receiver.json").write_text(json.dumps(receiver))
    (tmp_path / "open.json").write_text(json.dumps(opening))
    result = run_cli(["verify", *common])
    assert result.returncode == 2, result.stdout
    assert "rounds[0]" in result.stderr
    assert "Traceback" not in result.stderr


def _unsorted(rnd):
    rnd["i_set"].reverse()


def _repeated(rnd):
    rnd["i_set"][1] = rnd["i_set"][0]


def _unequal(rnd):
    rnd["j_set"].pop()


def _overlapping(rnd):
    rnd["j_set"] = sorted(rnd["j_set"][1:] + rnd["i_set"][:1])


def _position_zero(rnd):
    rnd["i_set"][0] = 0


def _position_past_n(rnd):
    rnd["j_set"][-1] = 17


@pytest.mark.parametrize(
    "mutate, reason",
    [
        (_unsorted, "rounds[1]: index sets must be sorted"),
        (_repeated, "rounds[1]: index sets must be sorted without repeats"),
        (_unequal, "rounds[1]: index sets must have equal size"),
        (_overlapping, "rounds[1]: index sets must be disjoint"),
        (_position_zero, "'rounds[1].i_set' is malformed: positions must lie in 1..16"),
        (_position_past_n, "'rounds[1].j_set' is malformed: positions must lie in 1..16"),
    ],
)
def test_verify_refuses_a_malformed_announcement(mutate, reason, tmp_path, capsys):
    common = ["--out", str(tmp_path)]
    assert main(
        ["commit", "--protocol", "p2bc", "--l", "2", "--n", "16", "--seed", "25", *common]
    ) == 0
    assert main(["open", *common]) == 0
    receiver = json.loads((tmp_path / "receiver.json").read_text())
    mutate(receiver["rounds"][1])
    (tmp_path / "receiver.json").write_text(json.dumps(receiver))
    capsys.readouterr()
    assert main(["verify", *common]) == 2
    assert reason in capsys.readouterr().err


# commit flags per protocol; a transcript name without a protocol is p2bc's
_COUNTED_COMMITS = {"p2bc": ["--l", "2", "--n", "16"], "p5": []}


@pytest.mark.parametrize(
    "name, field, value, reason",
    [
        ("receiver.json", "k", 2, "rounds[0]: the announced sets hold 3 positions each, not k = 2"),
        ("receiver.json", "l", 3, "field 'rounds' holds 2 rounds, but field 'l' is 3"),
        ("sender.json", "l", 1, "field 'rounds' holds 2 rounds, but field 'l' is 1"),
        ("sender.json", "n", 8, "'rounds[0].r' is malformed: expected a list of n = 8 bits"),
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


def test_open_refuses_a_sender_position_out_of_range(tmp_path, capsys):
    common = ["--out", str(tmp_path)]
    assert main(
        ["commit", "--protocol", "p2bc", "--l", "2", "--n", "16", "--seed", "25", *common]
    ) == 0
    sender = json.loads((tmp_path / "sender.json").read_text())
    sender["rounds"][0]["x_set"][-1] = 99
    (tmp_path / "sender.json").write_text(json.dumps(sender))
    capsys.readouterr()
    assert main(["open", *common]) == 2
    assert "'rounds[0].x_set' is malformed" in capsys.readouterr().err


@pytest.mark.parametrize("record", [["B7", "maybe"], ["B7", "perp"], ["B0", "maybe"]])
def test_verify_refuses_an_unknown_p5_outcome_record(record, tmp_path, capsys):
    """Only the two basis tags and the two outcome labels the commit writes
    are read; anything else is a malformed transcript, not an outcome."""
    common = ["--out", str(tmp_path)]
    assert main(["commit", "--protocol", "p5", "--seed", "3", *common]) == 0
    assert main(["open", *common]) == 0
    capsys.readouterr()
    receiver = json.loads((tmp_path / "receiver.json").read_text())
    receiver["records"] = [[record for _ in row] for row in receiver["records"]]
    (tmp_path / "receiver.json").write_text(json.dumps(receiver))
    result = run_cli(["verify", *common])
    assert result.returncode == 2, result.stdout
    assert result.stderr.startswith("error: field 'records' is malformed: ")
    assert "Traceback" not in result.stderr


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
        (_OT12, "p1_exact", lambda n, alpha, theta: SecurityEstimate(0.5, 0.5, 0.5),
         "ot12: abort rate", "sigma 0.05, z -"),
        (_OT12, "p1_exact", lambda n, alpha, theta: SecurityEstimate(0.0, 0.0, 0.0),
         "ot12: abort rate", "sigma 0, gap -"),
        (_PROBE_P4, "p4_probe_detection_probability", lambda alphas: np.full(len(alphas), 0.5),
         "probe-p4: per-qubit detection", "sigma 0.025, z -"),
    ],
    ids=["z", "sigma-zero", "probe-p4-twin"],
)
def test_a_failing_check_reports_its_spread(argv, name, fake, label, spread, monkeypatch, capsys):
    """A wrong exact value (p1, which moves the expected abort rate to
    1 - p1, or the probe-p4 twin) fails the check: the failing line carries
    sigma and z, or the bare gap when sigma is 0."""
    monkeypatch.setattr(cli, name, fake)
    code, out, err = _run([*argv, "--check"], capsys)
    assert code == 3
    (line,) = [line for line in err.splitlines() if line.startswith(f"CHECK FAIL: {label}")]
    assert spread in line
    assert (" z " in line) == ("sigma 0," not in spread)
    # without --check the same run passes, prints the same rows and no CHECK line
    assert _run(argv, capsys) == (0, out, "")


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
