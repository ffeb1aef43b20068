"""Random oblivious transfer rounds: honest receiver and the conclusive-rate ceiling."""

import dataclasses

import numpy as np
import pytest

from qotlab.qsim import (
    CONCLUSIVE_0,
    CONCLUSIVE_1,
    RngStream,
    batch_probabilities,
    inverse_cdf,
    make_nonorthogonal_pair,
    usd_povm,
)
from qotlab.rot import (
    HONEST,
    PERP_INDEX,
    USD,
    ReceiverRecord,
    RotConfig,
    SenderRecord,
    born_table,
    encoding_amps,
    honest_probabilities,
    run_rot,
)

# the angles the golden digests pin (pi/4, 0.5, 0.7) and three more
THETAS = (0.3, 0.5, 0.7, np.pi / 4, 1.2, np.pi / 2)


# The per-row reference route: the sender's qubits as one amplitude row
# each, and the receivers' Born rule run over every row. `run_rot` gathers
# the same probabilities from `born_table` and must agree with it draw by draw.


def alice_send(config: RotConfig, rng: RngStream) -> tuple[SenderRecord, np.ndarray]:
    bits = rng.bits(config.n)
    return SenderRecord(bits=bits), encoding_amps(config.theta)[bits]


def bob_measure_honest(amps: np.ndarray, theta: float, rng: RngStream) -> ReceiverRecord:
    x = rng.bits(len(amps))
    probs = honest_probabilities(amps, theta, x)
    outcomes = inverse_cdf(probs, rng.gen.random(len(probs)))
    return ReceiverRecord.from_decoded(HONEST, x, np.where(outcomes == PERP_INDEX, x ^ 1, -1))


def bob_measure_usd(amps: np.ndarray, theta: float, rng: RngStream) -> ReceiverRecord:
    povm = usd_povm(theta)
    values = np.array([{CONCLUSIVE_0: 0, CONCLUSIVE_1: 1}.get(label, -1) for label in povm.labels])
    probs = batch_probabilities(amps, povm)
    decoded = values[inverse_cdf(probs, rng.gen.random(len(probs)))]
    return ReceiverRecord.from_decoded(USD, np.full(len(amps), -1), decoded)


def reference_rot(config: RotConfig, strategy: str, rng: RngStream):
    sender, amps = alice_send(config, rng)
    measure = bob_measure_honest if strategy == HONEST else bob_measure_usd
    return sender, measure(amps, config.theta, rng)


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
    psi0, psi1 = make_nonorthogonal_pair(cfg.theta)
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
        assert val == (0 if choice == 1 else 1)


def test_receiver_record_helpers():
    record = ReceiverRecord(
        strategy=HONEST,
        basis_choices=(0, 1, 0),
        conclusive=((1, 0), (2, 1)),
    )
    assert record.conclusive_map() == {1: 0, 2: 1}
    assert record.basis_choices.dtype == np.int8
    assert not record.basis_choices.flags.writeable
    for row, want in (
        (record.decoded, [0, 1, -1]),
        (dataclasses.replace(record, conclusive=((3, 1),)).decoded, [-1, -1, 1]),
        (ReceiverRecord.from_decoded(HONEST, (0, 1, 0), np.array([-1, 0, 1])).decoded, [-1, 0, 1]),
    ):
        assert row.dtype == np.int8 and not row.flags.writeable
        assert row.tolist() == want


@pytest.mark.parametrize(
    "conclusive, reason",
    [
        (((0, 1),), "increasing and in"),
        (((4, 1),), "increasing and in"),
        (((2, 1), (2, 1)), "increasing and in"),
        (((3, 0), (2, 1)), "increasing and in"),
        (((1, 2),), "must be bits"),
    ],
    ids=["position-zero", "position-n-plus-1", "repeated", "decreasing", "value-two"],
)
def test_receiver_record_refuses_a_bad_conclusive_pair(conclusive, reason):
    with pytest.raises(ValueError, match=reason):
        ReceiverRecord(strategy=HONEST, basis_choices=(0, 1, 0), conclusive=conclusive)


def test_receivers_record_basis_bits():
    cfg = RotConfig(200)
    _, honest = run_rot(cfg, HONEST, RngStream(10, 1))
    _, usd = run_rot(cfg, USD, RngStream(10, 2))
    assert set(honest.basis_choices.tolist()) == {0, 1}
    # the discriminating receiver chooses no basis
    assert set(usd.basis_choices.tolist()) == {-1}


def test_sender_record_reveals_nothing_about_outcomes():
    """The sender's view is just her bit string; no measurement data flows back."""
    cfg = RotConfig(16)
    sender, _ = run_rot(cfg, HONEST, RngStream(11, 0))
    assert set(vars(sender)) == {"bits"}
    assert all(b in (0, 1) for b in sender.bits)


@pytest.mark.parametrize("strategy", [HONEST, USD])
@pytest.mark.parametrize("theta", THETAS)
def test_run_rot_matches_the_per_row_route(theta, strategy):
    for n in (1, 64, 1000):
        for seed in range(3):
            sender, receiver = run_rot(RotConfig(n, theta), strategy, RngStream(seed, 4))
            ref_sender, ref_receiver = reference_rot(RotConfig(n, theta), strategy, RngStream(seed, 4))
            assert np.array_equal(sender.bits, ref_sender.bits)
            assert np.array_equal(receiver.basis_choices, ref_receiver.basis_choices)
            assert receiver.conclusive == ref_receiver.conclusive
            assert receiver.decoded.tolist() == ref_receiver.decoded.tolist()
            assert receiver.strategy == strategy


@pytest.mark.parametrize("theta", THETAS)
def test_born_table_rows_are_the_per_row_probabilities(theta):
    """Bit for bit, not to a tolerance: a table row and the kernel's row for
    the same (bit, x) must sample the same outcome from the same uniform."""
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, size=64)
    x = rng.integers(0, 2, size=64)
    amps = encoding_amps(theta)[bits]
    honest = honest_probabilities(amps, theta, x)
    assert np.array_equal(born_table(theta, HONEST)[2 * bits + x], honest)
    usd = batch_probabilities(amps, usd_povm(theta))
    assert np.array_equal(born_table(theta, USD)[bits], usd)


def test_born_table_is_read_only_and_built_once():
    for strategy, shape in ((HONEST, (4, 2)), (USD, (2, 3))):
        table = born_table(0.7, strategy)
        assert table.shape == shape
        assert born_table(0.7, strategy) is table
        with pytest.raises(ValueError):
            table[0, 0] = 0.5


@pytest.mark.parametrize("theta", [0.0, -0.1, np.pi / 2 + 1e-9, np.pi])
def test_angles_outside_the_range_are_refused(theta):
    with pytest.raises(ValueError, match=r"^theta must lie in \(0, pi/2\]$"):
        RotConfig(8, theta=theta)
    distinct = r"^theta must lie in \(0, pi/2\]: the pair must be distinct$"
    for build in (usd_povm, lambda theta: born_table(theta, USD)):
        with pytest.raises(ValueError, match=distinct):
            build(theta)


def test_unknown_strategy_is_refused():
    with pytest.raises(ValueError, match="unknown receiver strategy 'guess'"):
        run_rot(RotConfig(8), "guess", RngStream(1, 0))
