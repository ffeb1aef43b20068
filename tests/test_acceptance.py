"""Acceptance gate: every analytic claim the package makes, at full size.

Each criterion is one test function, so a verbose pytest run shows one
pass/fail line per criterion. The functions also print a summary line for
runs with output capture disabled.
"""

import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import scipy.stats

from qotlab.attacks import (
    NoGoInstance,
    _p3_probe_tables,
    nogo_cheat_report,
    nogo_reduced_states,
    omission_attack_p5,
    probe_attack_p3,
    uhlmann_overlap,
)
from qotlab.bitcommit import (
    OT_VARIANTS,
    ENCODE_ANGLE,
    PROTOCOL_P2BC,
    bc_commit_over_ot,
    bc_open,
    bc_verify,
    bell_state,
    p5_commit,
    p5_open,
    p5_verify,
    parity_function,
    verify_from_states,
)
from qotlab.ot12 import k_of, p1_exact, p2_exact, run_ot12
from qotlab.qsim import (
    DensityMatrix,
    RngStream,
    apply_on_qubit,
    fidelity,
    partial_trace,
    purify,
    rotation_plane,
    usd_povm,
)
from qotlab.rot import HONEST, USD, RotConfig, honest_draws, run_rot
from rotation_route import blinded_amps, rotate_rows, unblind_and_measure
from uhlmann_route import svd_cheating_unitary


def report(index, ok, detail):
    print(f"ACCEPTANCE {index}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_01_honest_conclusive_rate():
    n, trials = 1000, 1000  # 10^6 qubits
    cfg = RotConfig(n)
    total = 0
    for t in range(trials):
        _, receiver = run_rot(cfg, HONEST, RngStream(101, t))
        total += len(receiver.conclusive)
    rate = total / (n * trials)
    report(1, abs(rate - 0.25) < 0.005, f"honest rate {rate:.6f} vs 0.25 +- 0.005")


def test_criterion_02_usd_rate_and_zero_errors():
    n, trials = 1000, 1000  # 10^6 qubits
    cfg = RotConfig(n)
    expected = 1 - math.sqrt(2) / 2
    total = 0
    errors = 0
    for t in range(trials):
        sender, receiver = run_rot(cfg, USD, RngStream(102, t))
        total += len(receiver.conclusive)
        errors += sum(1 for pos, val in receiver.conclusive if sender.bits[pos - 1] != val)
    rate = total / (n * trials)
    ok = abs(rate - expected) < 0.005 and errors == 0
    report(2, ok, f"usd rate {rate:.6f} vs {expected:.6f} +- 0.005, {errors} conclusive errors")


def test_criterion_03_encoding_identity():
    rotated = apply_on_qubit(bell_state("phi-"), 0, rotation_plane(math.pi / 4))
    expected = (bell_state("phi-").amps + bell_state("psi+").amps) / math.sqrt(2)
    gap = float(np.abs(rotated.amps - expected).max())
    report(3, gap < 1e-12, f"encoding identity max deviation {gap:.2e}")


def test_criterion_04_probe_attack_expansion():
    table = _p3_probe_tables()[0][2]  # row 2*r + x: r = 1, basis 0
    table_gap = float(np.abs(table - 0.25).max())

    n, trials = 8, 125_000  # 10^6 qubits, >= 10^5 runs
    detected = probe_attack_p3(n, trials, RngStream(104, 0))
    per_qubit = detected.mean()
    run_success = (~detected.any(axis=1)).mean()
    per_qubit_ok = abs(per_qubit - 0.5) < 0.01
    expected_run = 1 / 256
    sigma = math.sqrt(expected_run * (1 - expected_run) / trials)
    run_gap = abs(run_success - expected_run)
    ok = table_gap < 1e-12 and per_qubit_ok and run_gap < 3 * sigma
    report(
        4,
        ok,
        f"table gap {table_gap:.1e}, per-qubit {per_qubit:.4f}, "
        f"run {run_success:.6f} vs {expected_run:.6f} (3 sigma {3*sigma:.6f})",
    )


def test_criterion_05_ot12_correctness():
    n, runs = 256, 1000
    assert k_of(n) == 48
    aborted = 0
    for t in range(runs):
        rng = RngStream(105, t)
        b0, b1 = t % 2, (t >> 1) % 2
        transcript = run_ot12(n, b0, b1, HONEST, rng)
        if transcript.aborted:
            aborted += 1
            continue
        assert transcript.b_received == (b0, b1)[transcript.sets.m]
    expected = 1 - p1_exact(n).value
    sigma = math.sqrt(expected * (1 - expected) / runs)
    gap = abs(aborted / runs - expected)
    report(
        5,
        gap < 3 * sigma,
        f"abort rate {aborted / runs:.4f} vs {expected:.4f} (3 sigma {3*sigma:.4f}), "
        f"every non-aborted run returned its chosen secret",
    )


def test_criterion_06_security_conditions():
    ns = (64, 128, 256, 512, 1024)
    p1s = [p1_exact(n).value for n in ns]
    p2s = [p2_exact(n).value for n in ns]
    monotone = all(a < b for a, b in zip(p1s, p1s[1:])) and all(
        a > b for a, b in zip(p2s, p2s[1:])
    )
    xs = np.array(ns, dtype=float)
    logs = np.log(p2s)
    slope, intercept = np.polyfit(xs, logs, 1)
    fitted = slope * xs + intercept
    r_squared = 1 - float(np.sum((logs - fitted) ** 2) / np.sum((logs - logs.mean()) ** 2))

    gen = np.random.default_rng(106)
    trials = 40_000
    k = k_of(64)
    ok_mc = True
    for p, threshold, exact in (
        (0.25, k, p1_exact(64).value),
        (1 - math.sqrt(2) / 2, 2 * k, p2_exact(64).value),
    ):
        hits = int((gen.binomial(64, p, size=trials) >= threshold).sum())
        sigma = math.sqrt(exact * (1 - exact) / trials)
        ok_mc = ok_mc and abs(hits / trials - exact) < 3 * sigma
    ok = monotone and r_squared > 0.99 and ok_mc
    report(6, ok, f"monotone={monotone}, R^2={r_squared:.5f}, MC tails within 3 sigma={ok_mc}")


def test_criterion_07_commitment_round_trips():
    accepted = 0
    total = 0
    for variant in sorted(OT_VARIANTS):
        for rep in range(100):
            rng = RngStream(107 + hash(variant) % 100, rep)
            t = bc_commit_over_ot(rep % 2, l=2, n=16, variant=variant, rng=rng)
            result = bc_verify(t.receiver, bc_open(t.sender))
            accepted += result.accepted and result.recovered_bit == rep % 2
            total += 1
    spec = parity_function(4)
    for rep in range(100):
        t = p5_commit(rep % 2, 2, 4, spec, RngStream(207, rep))
        result = verify_from_states(t.receiver, p5_open(t.sender))
        accepted += result.accepted and result.recovered_bit == rep % 2
        total += 1

    # single-bit tampering of each checkable open-message field
    t = bc_commit_over_ot(1, l=2, n=16, variant=PROTOCOL_P2BC, rng=RngStream(307, 0))
    msg = bc_open(t.sender)
    first = msg.rounds[0]
    tampered = [
        dataclasses.replace(first, share0=first.share0 ^ 1),
        dataclasses.replace(first, share1=first.share1 ^ 1),
        dataclasses.replace(
            first,
            declared_x=((first.declared_x[0][0], first.declared_x[0][1] ^ 1),)
            + first.declared_x[1:],
        ),
        dataclasses.replace(
            first,
            declared_y=((first.declared_y[0][0], first.declared_y[0][1] ^ 1),)
            + first.declared_y[1:],
        ),
    ]
    unused = next(
        pos for pos in range(1, 17) if pos not in {p for p, _ in first.declared_x}
    )
    tampered.append(
        dataclasses.replace(
            first,
            declared_x=((unused, first.declared_x[0][1]),) + first.declared_x[1:],
        )
    )
    rejections = 0
    for bad_round in tampered:
        bad = dataclasses.replace(msg, rounds=(bad_round,) + msg.rounds[1:])
        rejections += not bc_verify(t.receiver, bad).accepted

    t5 = p5_commit(0, 2, 4, spec, RngStream(407, 0))
    msg5 = p5_open(t5.sender)
    flipped_bit = dataclasses.replace(msg5, bit=1)
    strings = [list(s) for s in msg5.strings]
    strings[0][0] ^= 1
    flipped_string = dataclasses.replace(msg5, strings=tuple(tuple(s) for s in strings))
    for bad in (flipped_bit, flipped_string):
        rejections += not p5_verify(t5.receiver, bad).accepted

    ok = accepted == total == 400 and rejections == 7
    report(7, ok, f"{accepted}/{total} honest accepts, {rejections}/7 tampered fields rejected")


def test_criterion_08_no_go_attack():
    fidelities = []
    agree = True
    for two_k in (2, 4, 6):
        inst = NoGoInstance(two_k)
        rho0, rho1 = nogo_reduced_states(inst)
        trace_formula = fidelity(rho0, rho1)
        amps0, amps1 = rho0.purification_amps, rho1.purification_amps
        unitary, _ = svd_cheating_unitary(amps0, amps1)
        achieved = uhlmann_overlap(amps0, amps1, unitary)
        agree = agree and abs(trace_formula - achieved) < 1e-8
        fidelities.append(trace_formula)
    detections = [
        nogo_cheat_report(NoGoInstance(two_k)).detection_probability for two_k in (2, 4, 6)
    ]
    decreasing = all(a > b for a, b in zip(detections, detections[1:]))
    ok = agree and decreasing
    report(
        8,
        ok,
        f"route agreement within 1e-8={agree}, detection {detections} strictly decreasing",
    )


def test_criterion_09_povm_and_linear_algebra():
    gen = np.random.default_rng(109)
    povm_ok = True
    for theta in gen.uniform(0.05, math.pi / 2, size=20):
        povm = usd_povm(float(theta))
        total = np.zeros((2, 2), dtype=np.complex128)
        for effect in povm.effects:
            povm_ok = povm_ok and np.linalg.eigvalsh(effect).min() >= -1e-12
            total += effect
        povm_ok = povm_ok and float(np.abs(total - np.eye(2)).max()) <= 1e-12

    def random_density(num_qubits):
        dim = 2**num_qubits
        raw = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
        mat = raw @ raw.conj().T
        return DensityMatrix(num_qubits=num_qubits, entries=mat / np.trace(mat).real)

    fid_ok = True
    for _ in range(50):
        a, b = random_density(2), random_density(2)
        f_ab, f_ba = fidelity(a, b), fidelity(b, a)
        fid_ok = fid_ok and -1e-12 <= f_ab <= 1 + 1e-12 and abs(f_ab - f_ba) < 1e-10

    purify_ok = True
    for _ in range(10):
        dm = random_density(2)
        back = partial_trace(DensityMatrix.from_pure(purify(dm)), (0, 1))
        purify_ok = purify_ok and float(np.abs(back.entries - dm.entries).max()) < 1e-10

    ok = povm_ok and fid_ok and purify_ok
    report(9, ok, f"povm={povm_ok}, fidelity bounds/symmetry={fid_ok}, purify round-trip={purify_ok}")


def test_criterion_10_blinding_equivalence():
    n_per_run, runs = 500, 200  # 10^5 qubits per arm
    counts = {"uniform": np.zeros(4, dtype=int), "zero": np.zeros(4, dtype=int)}
    for arm in ("uniform", "zero"):
        for run in range(runs):
            rng = RngStream(110 if arm == "uniform" else 111, run)
            if arm == "uniform":
                alphas = rng.gen.uniform(0.0, 2 * np.pi, size=n_per_run)
            else:
                alphas = np.zeros(n_per_run)
            bits = np.array([rng.bit() for _ in range(n_per_run)], dtype=np.int8)
            encoded = rotate_rows(blinded_amps(alphas), ENCODE_ANGLE * bits)
            x, u = honest_draws(rng, n_per_run)
            conclusive = unblind_and_measure(encoded, alphas, x, u) >= 0
            for basis, hit in zip(x.tolist(), conclusive.tolist()):
                counts[arm][2 * basis + hit] += 1
    table = np.stack([counts["uniform"], counts["zero"]])
    _, p_value, _, _ = scipy.stats.chi2_contingency(table)
    report(10, p_value > 0.01, f"chi-square p={p_value:.4f} on {table.sum()} qubits")


def test_criterion_11_omission_attack():
    lossy = omission_attack_p5(6, 3, 100, False, RngStream(112, 0)).succeeded
    caught = ~omission_attack_p5(6, 3, 100, True, RngStream(113, 0)).succeeded
    lossy, caught = int(np.count_nonzero(lossy)), int(np.count_nonzero(caught))
    ok = lossy == 100 and caught == 100
    report(11, ok, f"lossy detectors: {lossy}/100 dual openings, perfect: {caught}/100 rejected")


def test_criterion_12_deterministic_cli_output():
    env = dict(os.environ)
    env.pop("QOT_SEED", None)
    args = [sys.executable, "-m", "qotlab.cli", "ot12", "--n", "32", "--trials", "25", "--seed", "123"]
    first = subprocess.run(args, capture_output=True, env=env)
    second = subprocess.run(args, capture_output=True, env=env)
    ok = first.returncode == second.returncode == 0 and first.stdout == second.stdout
    report(12, ok, f"{len(first.stdout)} CSV bytes, byte-identical on repeat")
