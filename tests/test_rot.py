"""Random oblivious transfer rounds: honest receiver and the conclusive-rate ceiling."""

import dataclasses

import numpy as np
import pytest

from qotlab.qsim import (
    RngStream,
    born_probabilities,
    make_nonorthogonal_pair,
    povm_probabilities,
    usd_povm,
)
from qotlab.qsim.measure import CONCLUSIVE_0, CONCLUSIVE_1
from qotlab.rot import (
    HONEST,
    USD,
    ReceiverRecord,
    RotConfig,
    SenderRecord,
    born_table,
    encoding_amps,
    honest_channel,
    honest_draws,
    measurement_bases,
    run_rot,
)
from rotation_route import PERP_INDEX, born_rows, inverse_cdf, povm_rows, receiver_record

# the angles the golden digests pin (pi/4, 0.5, 0.7) and three more
THETAS = (0.3, 0.5, 0.7, np.pi / 4, 1.2, np.pi / 2)


# The per-row reference route: the sender's qubits as one amplitude row
# each, and the route's own Born step run over every row. `run_rot` gathers
# the same probabilities from `born_table` and must agree with it draw by draw.


def alice_send(config: RotConfig, rng: RngStream) -> tuple[SenderRecord, np.ndarray]:
    bits = rng.bits(config.n)
    return SenderRecord(bits=bits), encoding_amps(config.theta)[bits]


def bob_measure_honest(amps: np.ndarray, theta: float, rng: RngStream) -> ReceiverRecord:
    x = rng.bits(len(amps))
    probs = born_rows(amps, measurement_bases(theta), x)
    outcomes = inverse_cdf(probs, rng.gen.random(len(probs)))
    return receiver_record(HONEST, np.where(outcomes == PERP_INDEX, x ^ 1, -1))


def bob_measure_usd(amps: np.ndarray, theta: float, rng: RngStream) -> ReceiverRecord:
    povm = usd_povm(theta)
    values = np.array([{CONCLUSIVE_0: 0, CONCLUSIVE_1: 1}.get(label, -1) for label in povm.labels])
    probs = povm_rows(amps, povm)
    decoded = values[inverse_cdf(probs, rng.gen.random(len(probs)))]
    return receiver_record(USD, decoded)


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
    for theta in THETAS:
        rng = RngStream(10, 0)
        bits = rng.bits(500)
        x, u = honest_draws(rng, 500)
        decoded = honest_channel(bits, x, u, theta)
        conclusive = decoded >= 0
        assert conclusive.any()
        assert np.array_equal(decoded[conclusive], x[conclusive] ^ 1)


def test_receiver_record_helpers():
    record = receiver_record(HONEST, [0, 1, -1])
    assert record.conclusive == ((1, 0), (2, 1))
    for row, want in (
        (record.decoded, [0, 1, -1]),
        (receiver_record(USD, np.array([-1, 0, 1])).decoded, [-1, 0, 1]),
    ):
        assert row.dtype == np.int8 and not row.flags.writeable
        assert row.tolist() == want
    # records compare by strategy and pairs; the row is their copy
    assert dataclasses.replace(record, decoded=np.zeros(3, dtype=np.int8)) == record
    assert dataclasses.replace(record, strategy=USD) != record
    # a decoded row with any cell outside {-1, 0, 1}, negative ones too, is refused
    for cells in ([-2, 1, -7], [0, 2, -1], [-1, -1, -128], [0.5, 0, 1]):
        with pytest.raises(ValueError, match="^decoded cells must be -1, 0 or 1$"):
            receiver_record(HONEST, cells)


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
            assert receiver.conclusive == ref_receiver.conclusive
            assert receiver.decoded.tolist() == ref_receiver.decoded.tolist()
            assert receiver.strategy == strategy


@pytest.mark.parametrize("theta", THETAS)
def test_born_table_rows_are_the_per_row_probabilities(theta):
    """Bit for bit, the table is the single-state Born rule, one call per
    (bit, x); and the route's Born step gives each row to within 1e-15."""
    pair = make_nonorthogonal_pair(theta)
    bases = measurement_bases(theta)
    povm = usd_povm(theta)
    honest = [born_probabilities(pair[bit], bases[x]) for bit in (0, 1) for x in (0, 1)]
    assert np.array_equal(born_table(theta, HONEST), honest)
    assert np.array_equal(born_table(theta, USD), [povm_probabilities(s, povm) for s in pair])
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, size=64)
    x = rng.integers(0, 2, size=64)
    amps = encoding_amps(theta)[bits]
    route = born_rows(amps, bases, x)
    np.testing.assert_allclose(born_table(theta, HONEST)[2 * bits + x], route, rtol=0, atol=1e-15)
    np.testing.assert_allclose(born_table(theta, USD)[bits], povm_rows(amps, povm), rtol=0, atol=1e-15)


@pytest.mark.parametrize("theta", THETAS)
def test_born_tables_are_their_closed_forms(theta):
    """Honest row 2b + x is [1 - s, s], s = sin^2(theta) when b != x and 0
    otherwise; USD row b gives its conclusive outcome with 1 - cos(theta)."""
    s = np.sin(theta) ** 2
    honest = [[1 - s * (b != x), s * (b != x)] for b in (0, 1) for x in (0, 1)]
    np.testing.assert_allclose(born_table(theta, HONEST), honest, rtol=0, atol=1e-15)
    c = np.cos(theta)
    usd = [[1 - c, 0, c], [0, 1 - c, c]]
    np.testing.assert_allclose(born_table(theta, USD), usd, rtol=0, atol=1e-15)


def test_born_table_is_read_only_and_built_once():
    for strategy, shape in ((HONEST, (4, 2)), (USD, (2, 3))):
        table = born_table(0.7, strategy)
        assert table.shape == shape
        assert born_table(0.7, strategy) is table
        with pytest.raises(ValueError):
            table[0, 0] = 0.5


@pytest.mark.parametrize("theta", [0.0, -0.1, np.pi / 2 + 1e-9, np.pi, float("nan")])
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
