"""Command-line entry point: flags, exit codes, output formats, reproducibility."""

import json
import os
import subprocess
import sys

import pytest

from qotlab.cli import CSV_HEADER, main


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
        result = run_cli(["open", "--protocol", "p2bc", "--trials", "5", "--out", "x"])
        assert result.returncode == 2
        assert "--trials" in result.stderr

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
    common = ["--protocol", protocol, "--seed", "21", "--out", workdir]
    assert main(["commit", "--n", "8", "--l", "2", "--m", "2", *common]) == 0
    assert main(["open", *common]) == 0
    assert main(["verify", *common]) == 0
    out = capsys.readouterr().out
    assert "accepted: committed bit" in out
    for name in ("sender.json", "receiver.json", "open.json"):
        assert (tmp_path / name).exists()


def test_tampered_opening_is_rejected(tmp_path, capsys):
    workdir = str(tmp_path)
    common = ["--protocol", "p2bc", "--seed", "22", "--out", workdir]
    assert main(["commit", "--n", "8", "--l", "2", *common]) == 0
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
    common = ["--protocol", "p2bc", "--seed", "23", "--out", workdir]
    assert run_cli(["commit", "--n", "8", "--l", "2", *common]).returncode == 0
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
    common = ["--protocol", protocol, "--seed", "24", "--out", workdir]
    assert main(["commit", "--n", "8", "--l", "2", "--m", "2", *common]) == 0
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
    result = run_cli(["verify", "--protocol", "p2bc", "--out", str(tmp_path)])
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


def test_attack_nogo_reports_exact_numbers(capsys):
    assert main(["attack", "--attack", "nogo", "--n", "4", "--seed", "30"]) == 0
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
