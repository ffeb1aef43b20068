"""Random oblivious transfer rounds: honest receiver and the conclusive-rate ceiling."""

import numpy as np
import pytest

from qotlab.qsim import RngStream
from qotlab.rot import (
    BASIS_0,
    BASIS_1,
    BASIS_USD,
    HONEST,
    USD,
    ReceiverRecord,
    RotConfig,
    alice_send,
    bob_measure_honest,
    bob_measure_usd,
    encoding_states,
    run_rot,
    transcript_dict,
)


def test_config_rates():
    cfg = RotConfig(16)
    assert cfg.honest_conclusive_rate == pytest.approx(0.25, abs=1e-12)
    assert cfg.usd_conclusive_rate == pytest.approx(1 - np.sqrt(2) / 2, abs=1e-12)
    wide = RotConfig(16, theta=np.pi / 2)
    assert wide.honest_conclusive_rate == pytest.approx(0.5, abs=1e-12)
    assert wide.usd_conclusive_rate == pytest.approx(1.0, abs=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        RotConfig(0)
    with pytest.raises(ValueError):
        RotConfig(8, theta=0.0)
    with pytest.raises(ValueError):
        RotConfig(8, theta=np.pi)


def test_alice_send_encodes_her_bits():
    cfg = RotConfig(32)
    rng = RngStream(21, 0)
    sender, amps = alice_send(cfg, rng)
    assert amps.shape == (cfg.n, 2)
    psi0, psi1 = encoding_states(cfg.theta)
    for bit, row in zip(sender.bits, amps):
        expected = psi1 if bit else psi0
        np.testing.assert_allclose(row, expected.amps, atol=1e-12)


def test_conclusive_values_are_never_wrong():
    """A conclusive outcome always reveals the bit actually sent (positions are 1-based)."""
    cfg = RotConfig(64)
    for trial in range(50):
        for strategy in (HONEST, USD):
            rng = RngStream(100 + trial, 0 if strategy == HONEST else 1)
            sender, receiver = run_rot(cfg, strategy, rng)
            for pos, val in receiver.conclusive:
                assert 1 <= pos <= cfg.n
                assert sender.bits[pos - 1] == val


def test_honest_conclusive_rate():
    cfg = RotConfig(1000)
    total = 0
    trials = 200
    for t in range(trials):
        _, receiver = run_rot(cfg, HONEST, RngStream(7, t))
        total += len(receiver.conclusive)
    rate = total / (trials * cfg.n)
    sigma = np.sqrt(0.25 * 0.75 / (trials * cfg.n))
    assert abs(rate - 0.25) < 5 * sigma


def test_usd_conclusive_rate():
    cfg = RotConfig(1000)
    expected = 1 - np.sqrt(2) / 2
    total = 0
    trials = 200
    for t in range(trials):
        _, receiver = run_rot(cfg, USD, RngStream(8, t))
        total += len(receiver.conclusive)
    rate = total / (trials * cfg.n)
    sigma = np.sqrt(expected * (1 - expected) / (trials * cfg.n))
    assert abs(rate - expected) < 5 * sigma


def test_usd_beats_honest_but_both_miss_most_bits():
    # the receiver's information stays a strict minority of the string either way
    cfg = RotConfig(2000)
    _, honest = run_rot(cfg, HONEST, RngStream(9, 0))
    _, usd = run_rot(cfg, USD, RngStream(9, 1))
    assert len(honest.conclusive) < len(usd.conclusive) < cfg.n / 2


def test_honest_basis_choice_determines_learnable_bit():
    # basis B_x can only produce a conclusive value of x XOR 1
    cfg = RotConfig(500)
    _, receiver = run_rot(cfg, HONEST, RngStream(10, 0))
    assert len(receiver.conclusive) > 0
    for pos, val in receiver.conclusive:
        choice = receiver.basis_choices[pos - 1]
        assert val == (0 if choice == BASIS_1 else 1)


def test_receiver_record_helpers():
    record = ReceiverRecord(
        strategy=HONEST,
        basis_choices=(BASIS_0, BASIS_1, BASIS_0),
        conclusive=((1, 0), (2, 1)),
    )
    assert record.conclusive_positions == (1, 2)
    assert record.conclusive_map() == {1: 0, 2: 1}


def test_sender_record_reveals_nothing_about_outcomes():
    """The sender's view is just her bit string; no measurement data flows back."""
    cfg = RotConfig(16)
    sender, _ = run_rot(cfg, HONEST, RngStream(11, 0))
    assert set(vars(sender)) == {"bits"}
    assert all(b in (0, 1) for b in sender.bits)


def test_measure_functions_reject_length_mismatch():
    cfg = RotConfig(4)
    rng = RngStream(12, 0)
    _, amps = alice_send(cfg, rng)
    with pytest.raises(ValueError):
        bob_measure_honest(amps[:3], cfg, rng)
    with pytest.raises(ValueError):
        bob_measure_usd(np.concatenate([amps, amps]), cfg, rng)


def test_transcript_dict_round_trip_shape():
    cfg = RotConfig(8)
    rng = RngStream(13, 0)
    sender, receiver = run_rot(cfg, USD, rng)
    doc = transcript_dict(cfg, sender, receiver)
    assert doc["n"] == 8
    assert doc["strategy"] == USD
    assert len(doc["r"]) == 8
    assert doc["basis_choices"] == [BASIS_USD] * 8
    for entry in doc["conclusive"]:
        assert set(entry) == {"pos", "val"}
        assert doc["r"][entry["pos"] - 1] == entry["val"]
