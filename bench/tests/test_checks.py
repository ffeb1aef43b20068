"""The benchmark's own checks: each must pass on real output and fail on a
corrupted copy of it, so that none of them is vacuous.

    python3 -m pytest bench/tests
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest
from qotlab.bitcommit import VerifyResult

import oracles
import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parents[1]
SEED = 5


def set_value(csv: str, metric: str, params_part: str, value: str) -> str:
    """Rewrite the value column of the one CSV row with this metric."""
    lines = csv.splitlines()
    hits = [
        i for i, line in enumerate(lines)
        if line.split(",")[2:3] == [metric] and params_part in line
    ]
    assert len(hits) == 1
    cells = lines[hits[0]].split(",")
    cells[3] = value
    lines[hits[0]] = ",".join(cells)
    return "\n".join(lines) + "\n"


# -- oracles -----------------------------------------------------------------


@pytest.mark.parametrize("two_k", [2, 4, 6, 8, 10])
def test_nogo_oracle_matches_block_closed_form(two_k):
    assert abs(oracles.nogo_fidelity(two_k) - oracles.nogo_fidelity_closed_form(two_k)) < 1e-8


def test_tail_oracle_threshold_is_inclusive():
    n, p, k = 64, 0.25, 12
    direct = sum(math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(k, n + 1))
    assert abs(float(oracles.tail_at_least(n, p, k)) - direct) < 1e-14
    assert oracles.k_threshold(64) == 12 and oracles.k_threshold(16) == 3


def test_probe_p3_detection_is_one_half():
    assert abs(oracles.probe_p3_detection() - 0.5) < 1e-12


def test_closed_form_rates():
    assert abs(oracles.honest_rate() - 0.25) < 1e-15
    assert abs(oracles.usd_rate() - (1 - math.sqrt(2) / 2)) < 1e-15


# -- campaign --------------------------------------------------------------------


@pytest.fixture(scope="module")
def campaign_out():
    wl = workloads.Campaign()
    return wl.op(workloads.op_seed(SEED, 1))


def checked(wl, out):
    wl.check(out)
    return wl.problems


def test_campaign_accepts_real_output(campaign_out):
    wl = workloads.Campaign()
    assert checked(wl, campaign_out) == []
    assert any(t.receiver.conclusive for t in campaign_out["transcripts"])


@pytest.mark.parametrize(
    "key, metric, params_part, value",
    [
        ("rot", "conclusive_error_rate", "strategy=honest", "0.015625"),
        ("rot", "conclusive_error_rate", "strategy=usd", "0.015625"),
        ("ot12", "received_correct_rate", "", "0.9"),
        ("omission", "both_openings_accepted_rate", "", "0.875"),
    ],
)
def test_campaign_rejects_corrupted_csv(campaign_out, key, metric, params_part, value):
    csv = dict(campaign_out["csv"])
    csv[key] = set_value(csv[key], metric, params_part, value)
    wl = workloads.Campaign()
    assert checked(wl, {**campaign_out, "csv": csv})


def test_campaign_rejects_flipped_conclusive_value(campaign_out):
    transcripts = list(campaign_out["transcripts"])
    i = next(i for i, t in enumerate(transcripts) if t.receiver.conclusive)
    t = transcripts[i]
    (pos, val), *rest = t.receiver.conclusive
    receiver = dataclasses.replace(t.receiver, conclusive=((pos, val ^ 1), *rest))
    transcripts[i] = dataclasses.replace(t, receiver=receiver)
    wl = workloads.Campaign()
    assert checked(wl, {**campaign_out, "transcripts": transcripts})


def pooled_at_oracle(scale: float) -> workloads.Campaign:
    """A campaign whose pooled counts sit at the oracle values, one scaled."""
    wl = workloads.Campaign()
    trials = 10**6
    for hits, runs, p in (
        ("honest_hits", "honest_qubits", oracles.honest_rate()),
        ("usd_hits", "usd_qubits", oracles.usd_rate()),
        ("aborts", "ot12_runs", oracles.ot12_abort_rate(workloads.CAMPAIGN_N)),
        ("learned_both", "usd_runs", oracles.usd_learned_both_rate(workloads.CAMPAIGN_N)),
        ("p3_hits", "p3_qubits", oracles.probe_p3_detection()),
    ):
        wl.pooled[hits] = round(p * trials)
        wl.pooled[runs] = trials
    wl.pooled["honest_hits"] = round(wl.pooled["honest_hits"] * scale)
    return wl


def test_pooled_rates_accept_oracle_counts():
    wl = pooled_at_oracle(1.0)
    wl.finish()
    assert wl.problems == []


def test_pooled_rates_reject_a_shifted_rate():
    wl = pooled_at_oracle(1.02)
    wl.finish()
    assert len(wl.problems) == 1 and "honest conclusive rate" in wl.problems[0]


# -- exact -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def exact_out():
    return workloads.Exact().op(workloads.op_seed(SEED, 1))


def test_exact_accepts_real_output(exact_out):
    wl = workloads.Exact()
    wl.check(exact_out)
    wl.finish()
    assert wl.problems == []


def test_exact_rejects_fidelity_off_the_oracle(exact_out):
    rows = workloads.parse_rows(exact_out["csv"])
    f = workloads.pick(rows, "fidelity")[0]
    d = workloads.pick(rows, "detection_probability")[0]
    # keep detection = 1 - F^2 so only the oracle comparison can fail
    f_bad = f + 1e-7
    csv = set_value(exact_out["csv"], "fidelity", "", repr(f_bad))
    csv = set_value(csv, "detection_probability", "", repr(1 - f_bad**2))
    wl = workloads.Exact()
    wl.check({**exact_out, "csv": csv})
    assert wl.problems == []
    wl.finish()
    assert len(wl.problems) == 1 and "oracle" in wl.problems[0]
    assert d == pytest.approx(1 - f**2, abs=1e-12)


def test_exact_rejects_detection_not_one_minus_f_squared(exact_out):
    rows = workloads.parse_rows(exact_out["csv"])
    d = workloads.pick(rows, "detection_probability")[0]
    csv = set_value(exact_out["csv"], "detection_probability", "", repr(d + 1e-6))
    wl = workloads.Exact()
    wl.check({**exact_out, "csv": csv})
    assert wl.problems


@pytest.mark.parametrize("key", ["p1", "p2"])
def test_exact_rejects_tail_off_by_1e6(exact_out, key):
    wl = workloads.Exact()
    wl.check({**exact_out, key: exact_out[key] * (1 + 1e-6)})
    wl.finish()
    assert len(wl.problems) == 1 and wl.problems[0].startswith(f"exact: {key}(")


@pytest.mark.parametrize("key", ["p1", "p2"])
def test_exact_rejects_small_n_tail_off_by_1e6(exact_out, key, monkeypatch):
    # no op output to corrupt here: the small-n tails are computed in finish()
    real = getattr(workloads.ot12, f"{key}_exact")
    wl = workloads.Exact()
    wl.check(exact_out)

    def off(n):
        value = real(n).value
        return types.SimpleNamespace(value=value * (1 + 1e-6) if n < 1000 else value)

    monkeypatch.setattr(workloads.ot12, f"{key}_exact", off)
    wl.finish()
    assert len(wl.problems) == 1 and wl.problems[0].startswith(f"exact: {key}(n={workloads.SMALL_TAIL_N[0]})")
    assert real(workloads.SMALL_TAIL_N[0]).value < 0.95


# -- commit-roundtrip --------------------------------------------------------------


@pytest.fixture(scope="module")
def commit_out():
    return workloads.CommitRoundtrip().op(workloads.op_seed(SEED, 1))


def test_commit_accepts_real_output(commit_out):
    wl = workloads.CommitRoundtrip()
    assert checked(wl, commit_out) == []
    assert [r[0] for r in commit_out["results"]] == list(workloads.PROTOCOLS)


def replace_result(out, index, **fields):
    results = list(out["results"])
    protocol, b, honest, path, tampered = results[index]
    row = dict(protocol=protocol, b=b, honest=honest, path=path, tampered=tampered)
    row.update(fields)
    results[index] = tuple(row.values())
    return {**out, "results": results}


@pytest.mark.parametrize("index", range(4))
def test_commit_rejects_an_accepted_tampered_opening(commit_out, index):
    b = commit_out["results"][index][1]
    accepted = VerifyResult(accepted=True, recovered_bit=b, first_inconsistency=None)
    wl = workloads.CommitRoundtrip()
    assert checked(wl, replace_result(commit_out, index, tampered=accepted))


def test_commit_rejects_a_rejected_honest_opening(commit_out):
    rejected = VerifyResult(accepted=False, recovered_bit=None, first_inconsistency="x")
    wl = workloads.CommitRoundtrip()
    assert checked(wl, replace_result(commit_out, 0, honest=rejected))


def test_commit_rejects_the_wrong_recovered_bit(commit_out):
    b = commit_out["results"][1][1]
    wrong = VerifyResult(accepted=True, recovered_bit=b ^ 1, first_inconsistency=None)
    wl = workloads.CommitRoundtrip()
    assert checked(wl, replace_result(commit_out, 1, honest=wrong))


def test_every_single_bit_tamper_is_rejected():
    """The workload flips one bit chosen by seed; every choice must reject,
    or the share of failed checks would depend on the seed."""
    from qotlab import bitcommit
    from qotlab.qsim import RngStream

    for index, protocol in enumerate(workloads.PROTOCOLS):
        rng = RngStream(SEED, 8 + index)
        if protocol == bitcommit.PROTOCOL_P5:
            t = bitcommit.p5_commit(1, 3, 8, bitcommit.parity_function(8), rng, measure_at_commit=True)
            msg = bitcommit.p5_open(t.sender)
        else:
            t = bitcommit.bc_commit_over_ot(1, 8, 16, protocol, rng)
            msg = bitcommit.bc_open(t.sender)
        clean = bitcommit.open_message_to_dict(msg)
        for path in workloads.bit_paths(clean):
            bad = json.loads(json.dumps(clean))
            workloads.flip_bit(bad, path)
            result = bitcommit.verify_from_states(
                t.receiver, bitcommit.open_message_from_dict(bad)
            )
            assert not result.accepted and result.first_inconsistency, (protocol, path)


# -- tracing ---------------------------------------------------------------------


def traced_commit_ops(ops: int) -> tuple[tracing.Tracer, dict[int, float]]:
    """Real spans of `ops` checked commit ops, with each op's wall time
    taken around run_op."""
    wl = workloads.CommitRoundtrip()
    tracer = tracing.Tracer()
    outer: dict[int, float] = {}
    tracer.install()
    try:
        for i in range(1, ops + 1):
            t = time.perf_counter()
            out, _ = tracer.run_op(i, wl.op, workloads.op_seed(SEED, i))
            outer[i] = time.perf_counter() - t
            wl.check(out)
    finally:
        tracer.uninstall()
    assert wl.problems == []
    return tracer, outer


def test_spans_of_real_ops_pass():
    tracer, outer = traced_commit_ops(3)
    assert tracer.span_problems(outer) == []
    assert sum(rec[3] == -1 for rec in tracer.spans) == 3


def test_spans_reject_a_child_that_outlasts_its_parent():
    tracer, outer = traced_commit_ops(1)
    child = next(i for i, rec in enumerate(tracer.spans) if rec[3] >= 0)
    tracer.spans[child][2] = tracer.spans[tracer.spans[child][3]][2] + 1e-3
    problems = tracer.span_problems(outer)
    assert any("self time" in p for p in problems)


def test_spans_reject_a_root_shorter_than_the_op():
    tracer, outer = traced_commit_ops(1)
    tracer.spans[0][1] += 2 * tracing.ROOT_SLACK_S
    problems = tracer.span_problems(outer)
    assert any("timed around it" in p for p in problems)


def test_spans_reject_an_op_without_a_root():
    tracer, outer = traced_commit_ops(2)
    assert tracer.span_problems({**outer, 3: 0.1})


def test_traced_counts_repeat_for_one_seed():
    a, b = traced_commit_ops(2)[0], traced_commit_ops(2)[0]
    assert a.counts == b.counts
    assert a.totals()[0] == b.totals()[0]
    assert a.counts["bitcommit.channel_qubits"] > 0


def test_uninstall_restores_every_function():
    from qotlab import cli, rot
    from qotlab.qsim.rng import RngStream

    before = (cli.main, rot.measure_projective, RngStream.choice_index, workloads.encode)
    tracer = tracing.Tracer()
    tracer.install()
    assert cli.main is not before[0]
    tracer.uninstall()
    assert (cli.main, rot.measure_projective, RngStream.choice_index, workloads.encode) == before


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    tracer, _ = traced_commit_ops(1)
    names = set(tracing.layer_metrics(tracer, 1, 0, 0)) | {"trace.overhead_ms"}
    assert names == {m["name"] for m in spec["per_layer"]}


# -- the command -------------------------------------------------------------------


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_op_seeds_are_fixed_by_seed_and_index():
    assert workloads.op_seed(3, 7) == workloads.op_seed(3, 7)
    seeds = {workloads.op_seed(s, i) for s in range(3) for i in range(50)}
    assert len(seeds) == 150
    assert np.all(np.array(sorted(seeds), dtype=np.uint64) < 2**64)
