"""Bit commitment over the transfer channel, in all four variants."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from qotlab import bitcommit
from qotlab.bitcommit import (
    OT_VARIANTS,
    PROTOCOL_P2BC,
    PROTOCOL_P3,
    PROTOCOL_P4,
    PROTOCOL_P5,
    ENCODE_ANGLE,
    BooleanFunctionSpec,
    OpenMessage,
    bc_commit_over_ot,
    bc_open,
    bc_verify,
    bell_state,
    open_message_from_dict,
    open_message_to_dict,
    p3_bases,
    p3_born_table,
    p3_measure,
    p3_pair_states,
    p4_unblind_and_measure,
    p5_commit,
    p5_measure_record,
    p5_open,
    P5OpenMessage,
    P5ReceiverState,
    p5_sample_strings,
    p5_verify,
    parity_function,
    receiver_state_from_dict,
    receiver_state_to_dict,
    sender_state_from_dict,
    sender_state_to_dict,
    verify_from_states,
)
from qotlab.ot12 import k_of, p1_exact
from qotlab.qsim import RngStream, born_probabilities
from qotlab.rot import honest_channel, honest_draws
from rotation_route import (
    blinded_amps,
    born_rows,
    decoded_pairs,
    inverse_cdf,
    rotate_rows,
    unblind_and_measure,
)
from walsh_route import correlation_immunity_order

# the conclusive outcome of each pair basis, by its index in `p3_bases`:
# psi+ in basis 0 signals an encoded 1, (phi-) - (psi+) in basis 1 an encoded 0
PSI_PLUS = 2
PHI_MINUS_MINUS_PSI_PLUS = 1


def known_bits(rnd) -> dict[int, int]:
    """A receiver round's decoded bits by position, where one was learned."""
    return dict(decoded_pairs(rnd.decoded))


class TestEntangledEncoding:
    def test_encoding_rotation_identity(self):
        """Rotating the transit half of the pair lands exactly between two pair states."""
        state0, state1 = p3_pair_states()
        np.testing.assert_allclose(state0.amps, bell_state("phi-").amps, atol=1e-12)
        expected = (bell_state("phi-").amps + bell_state("psi+").amps) / np.sqrt(2.0)
        np.testing.assert_allclose(state1.amps, expected, atol=1e-12)

    def test_both_bases_are_orthonormal(self):
        for basis in p3_bases():
            gram = np.array(
                [[np.vdot(a.amps, b.amps) for b in basis.states] for a in basis.states]
            )
            np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)

    def test_conclusive_outcomes_have_zero_cross_probability(self):
        # the outcome that signals r=1 never fires on the r=0 state, and vice versa
        basis0, basis1 = p3_bases()
        state0, state1 = p3_pair_states()
        p0_in_b0 = born_probabilities(state0, basis0)
        p1_in_b0 = born_probabilities(state1, basis0)
        assert p0_in_b0[PSI_PLUS] == pytest.approx(0.0, abs=1e-12)
        assert p1_in_b0[PSI_PLUS] == pytest.approx(0.5, abs=1e-12)
        p0_in_b1 = born_probabilities(state0, basis1)
        p1_in_b1 = born_probabilities(state1, basis1)
        assert p1_in_b1[PHI_MINUS_MINUS_PSI_PLUS] == pytest.approx(0.0, abs=1e-12)
        assert p0_in_b1[PHI_MINUS_MINUS_PSI_PLUS] == pytest.approx(0.5, abs=1e-12)

    def test_measurement_conclusive_rate(self):
        rng = RngStream(31, 0)
        n, reps = 200, 20
        total = 0
        for rep in range(reps):
            bits = np.array([rng.bit() for _ in range(n)], dtype=np.int8)
            decoded = p3_measure(bits, *honest_draws(RngStream(32, rep), n))
            conclusive = decoded >= 0
            assert np.array_equal(decoded[conclusive], bits[conclusive])
            total += np.count_nonzero(conclusive)
        rate = total / (n * reps)
        sigma = np.sqrt(0.25 * 0.75 / (n * reps))
        assert abs(rate - 0.25) < 5 * sigma


def _p3_pair_amps(r_bits: np.ndarray) -> np.ndarray:
    """The returned pairs, one (4,) amplitude row per bit."""
    return np.stack([state.amps for state in p3_pair_states()])[r_bits]


def reference_p3_measure(r_bits: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The per-row route `p3_measure` replaced: run the route's Born step on
    every returned pair, then decode the one conclusive outcome of each
    basis. Same draws."""
    probs = born_rows(_p3_pair_amps(r_bits), p3_bases(), x)
    outcomes = inverse_cdf(probs, u)
    return np.select(
        [(x == 0) & (outcomes == PSI_PLUS), (x == 1) & (outcomes == PHI_MINUS_MINUS_PSI_PLUS)],
        [1, 0],
        -1,
    )


class TestPairBornTable:
    """The P3 channel samples, decodes and marks impossible outcomes from
    one table; each test pins it to the route it replaced."""

    def test_table_rows_are_the_per_row_probabilities(self):
        """Bit for bit, the table is the single-state Born rule, one call per
        (r, x); and the route's Born step gives each row to within 1e-15."""
        bases = p3_bases()
        rows = [born_probabilities(s, bases[x]) for s in p3_pair_states() for x in (0, 1)]
        assert np.array_equal(p3_born_table(), rows)
        gen = np.random.default_rng(19)
        r = gen.integers(0, 2, size=1000)
        x = gen.integers(0, 2, size=1000)
        route = born_rows(_p3_pair_amps(r), bases, x)
        np.testing.assert_allclose(p3_born_table()[2 * r + x], route, rtol=0, atol=1e-15)

    def test_table_is_its_closed_form(self):
        """Each pair state gives one outcome in the basis of its own bit and
        two outcomes at 1/2 in the other."""
        closed = [[0, 1, 0, 0], [0.5, 0.5, 0, 0], [0, 0.5, 0.5, 0], [1, 0, 0, 0]]
        np.testing.assert_allclose(p3_born_table(), closed, rtol=0, atol=1e-15)

    def test_table_is_read_only_and_built_once(self):
        table = p3_born_table()
        assert table is p3_born_table()
        assert table.shape == (4, 4)
        assert not table.flags.writeable

    @pytest.mark.parametrize("n", [1, 16, 128])
    def test_measure_matches_the_per_row_route_draw_for_draw(self, n):
        for seed in range(3):
            bits = RngStream(seed, 9).bits(n)
            x, u = honest_draws(RngStream(seed, 10), n)
            got = p3_measure(bits, x, u)
            assert got.dtype == np.int8 and not got.flags.writeable
            assert got.tolist() == reference_p3_measure(bits, x, u).tolist()

    def test_derived_decoder(self):
        """Only psi+ in basis 0 and phi- minus psi+ in basis 1 are conclusive."""
        assert bitcommit._p3_decode().tolist() == [[-1, -1, 1, -1], [-1, 0, -1, -1]]


class TestBlindedEncoding:
    def test_blinded_qubit_is_a_plane_rotation_of_zero(self):
        np.testing.assert_allclose(blinded_amps(0.7), [np.cos(0.7), np.sin(0.7)], atol=1e-12)
        angle = 0.7 + np.pi / 4
        shifted = blinded_amps(0.7, bits=1)
        np.testing.assert_allclose(shifted, [np.cos(angle), np.sin(angle)], atol=1e-12)
        grid = blinded_amps(np.array([[0.7, 0.2]]), np.array([[1, 0]]))
        assert grid.shape == (1, 2, 2)
        np.testing.assert_allclose(grid[0, 0], shifted, atol=1e-12)

    def test_unblinding_recovers_honest_statistics(self):
        """On the rotation route: whatever the angles, the unblinded qubits
        are conclusive at the honest rate 1/4 and never wrong."""
        rng = RngStream(33, 0)
        n = 400
        alphas = rng.gen.uniform(0.0, 2 * np.pi, size=n)
        bits = np.array([rng.bit() for _ in range(n)], dtype=np.int8)
        encoded = rotate_rows(blinded_amps(alphas), ENCODE_ANGLE * bits)
        decoded = unblind_and_measure(encoded, alphas, *honest_draws(rng, n))
        conclusive = decoded >= 0
        assert np.array_equal(decoded[conclusive], bits[conclusive])
        rate = np.count_nonzero(conclusive) / n
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert abs(rate - 0.25) < 5 * sigma


# the commitment channels, each (bits, x, u) -> read-only int8 decoded row
_CHANNELS = {
    "plain": lambda bits, x, u: honest_channel(bits, x, u, ENCODE_ANGLE),
    "pair": p3_measure,
    "blinded": p4_unblind_and_measure,
}


class TestChannelInterface:
    """Every commitment channel takes the sent bits and the receiver's
    draws, and returns a read-only decoded int8 row."""

    @pytest.mark.parametrize("name", sorted(_CHANNELS))
    def test_a_pass_is_a_read_only_row(self, name):
        rng = RngStream(35, 0)
        bits = rng.bits(64)
        x, u = honest_draws(rng, 64)
        decoded = _CHANNELS[name](bits, x, u)
        assert decoded.shape == (64,) and decoded.dtype == np.int8
        assert not decoded.flags.writeable
        conclusive = decoded >= 0
        assert conclusive.any() and not conclusive.all()
        assert np.array_equal(decoded[conclusive], bits[conclusive])

    @pytest.mark.parametrize("name", sorted(_CHANNELS))
    def test_a_draw_count_mismatch_is_refused(self, name):
        bits, x, u = np.zeros(4, dtype=np.int8), np.zeros(4, dtype=np.int8), np.zeros(4)
        for draws in ((x[:3], u), (x, u[:3]), (x[:1], u[:1]), (np.zeros(5, np.int8), u)):
            with pytest.raises(ValueError, match="one basis bit and one uniform per qubit"):
                _CHANNELS[name](bits, *draws)


def _blinded_draws(seed: int, shape):
    """A blinded grid's draws in the commitment's order: the receiver's
    angles, the sent bits, then the receiver's basis bits and uniforms."""
    rng = RngStream(seed, 36)
    alphas = rng.gen.uniform(0.0, 2 * np.pi, size=shape)
    bits = rng.bits(int(np.prod(shape))).reshape(shape)
    return alphas, bits, rng


class TestBlindedTable:
    """The honest P4 and P5 receivers sample the plain table at pi/4; the
    rotation route (tests/rotation_route.py) turns each qubit back and runs
    its Born step. Both give the same cell for the same draws."""

    SEEDS = range(1000)

    @pytest.mark.parametrize("size", [1, 16, 128])
    def test_p4_matches_the_rotation_route_cell_for_cell(self, size):
        for seed in self.SEEDS:
            alphas, bits, rng = _blinded_draws(seed, size)
            x, u = honest_draws(rng, size)
            got = p4_unblind_and_measure(bits, x, u)
            want = unblind_and_measure(blinded_amps(alphas, bits), alphas, x, u)
            assert got.tolist() == want.tolist(), seed

    @pytest.mark.parametrize("m, n", [(1, 1), (3, 8), (4, 5), (2, 16)])
    def test_p5_matches_the_rotation_route_cell_for_cell(self, m, n):
        for seed in self.SEEDS:
            alphas, bits, rng = _blinded_draws(seed, (m, n))
            x, u = honest_draws(rng, m * n)
            got = p5_measure_record(bits, x, u)
            want = unblind_and_measure(
                blinded_amps(alphas, bits).reshape(-1, 2), alphas.ravel(), x, u
            )
            assert got.shape == (m, n) and not got.flags.writeable
            assert got.ravel().tolist() == want.tolist(), seed

    @pytest.mark.parametrize("m, n", [(1, 2), (3, 8), (4, 5)])
    def test_p5_with_missing_qubits_matches_the_rotation_route(self, m, n):
        """Qubits that never arrived hold -1 and take no draw; the arriving
        ones, in row-major order, take the draws in turn."""
        for seed in self.SEEDS:
            alphas, bits, rng = _blinded_draws(seed, (m, n))
            present = rng.gen.random((m, n)) < 0.7
            count = int(present.sum())
            x, u = honest_draws(rng, count)
            got = p5_measure_record(bits, x, u, present)
            want = np.full((m, n), -1, dtype=np.int8)
            want[present] = unblind_and_measure(
                blinded_amps(alphas, bits)[present], alphas[present], x, u
            )
            assert got.tolist() == want.tolist(), seed
            assert not got.flags.writeable


@pytest.mark.parametrize("variant", sorted(OT_VARIANTS))
@pytest.mark.parametrize("b", [0, 1])
def test_commit_open_verify_round_trip(variant, b):
    rng = RngStream(40 + b, hash(variant) % 1000)
    transcript = bc_commit_over_ot(b, l=3, n=16, variant=variant, rng=rng)
    result = bc_verify(transcript.receiver, bc_open(transcript.sender))
    assert result.accepted
    assert result.recovered_bit == b
    assert result.first_inconsistency is None


def test_commit_validates_arguments():
    rng = RngStream(41, 0)
    with pytest.raises(ValueError):
        bc_commit_over_ot(2, l=2, n=16, variant=PROTOCOL_P2BC, rng=rng)
    with pytest.raises(ValueError):
        bc_commit_over_ot(0, l=0, n=16, variant=PROTOCOL_P2BC, rng=rng)
    with pytest.raises(ValueError):
        bc_commit_over_ot(0, l=2, n=16, variant="P9", rng=rng)
    with pytest.raises(ValueError):
        bc_commit_over_ot(0, l=2, n=16, variant=PROTOCOL_P3, rng=rng, theta=0.5)
    with pytest.raises(ValueError):
        bc_commit_over_ot(0, l=2, n=4, variant=PROTOCOL_P2BC, rng=rng)  # k = 0


def test_round_shares_split_the_committed_bit():
    rng = RngStream(42, 0)
    transcript = bc_commit_over_ot(1, l=4, n=16, variant=PROTOCOL_P2BC, rng=rng)
    for rnd in transcript.sender.rounds:
        assert rnd.share0 ^ rnd.share1 == 1


def test_commitment_string_hides_the_bit():
    """The (c0, c1) pairs sent at commit time look the same for b=0 and b=1."""
    counts = {0: np.zeros(4, dtype=int), 1: np.zeros(4, dtype=int)}
    reps = 600
    for b in (0, 1):
        for rep in range(reps):
            rng = RngStream(1000 + b, rep)
            t = bc_commit_over_ot(b, l=1, n=16, variant=PROTOCOL_P2BC, rng=rng)
            rnd = t.sender.rounds[0]
            counts[b][2 * rnd.c0 + rnd.c1] += 1
    table = np.stack([counts[0], counts[1]])
    _, p_value, _, _ = scipy.stats.chi2_contingency(table)
    assert p_value > 0.01


class TestTamperRejection:
    @pytest.fixture()
    def transcript(self):
        return bc_commit_over_ot(1, l=2, n=16, variant=PROTOCOL_P2BC, rng=RngStream(43, 0))

    def test_flipped_share_is_rejected(self, transcript):
        msg = bc_open(transcript.sender)
        rounds = list(msg.rounds)
        rounds[0] = dataclasses.replace(rounds[0], share0=rounds[0].share0 ^ 1)
        bad = dataclasses.replace(msg, rounds=tuple(rounds))
        result = bc_verify(transcript.receiver, bad)
        assert not result.accepted
        assert result.first_inconsistency is not None

    def test_all_share_flip_patterns_fail(self):
        """No pattern of share flips opens the other bit: the masks pin both shares."""
        t = bc_commit_over_ot(0, l=2, n=16, variant=PROTOCOL_P2BC, rng=RngStream(44, 0))
        msg = bc_open(t.sender)
        for pattern in range(1, 16):
            rounds = []
            for i, rnd in enumerate(msg.rounds):
                rounds.append(
                    dataclasses.replace(
                        rnd,
                        share0=rnd.share0 ^ (pattern >> (2 * i)) & 1,
                        share1=rnd.share1 ^ (pattern >> (2 * i + 1)) & 1,
                    )
                )
            result = bc_verify(t.receiver, dataclasses.replace(msg, rounds=tuple(rounds)))
            assert not result.accepted

    def test_flipped_bit_at_conclusive_position_is_rejected(self, transcript):
        # I is one of the two announced sets and entirely conclusive, so the
        # search over both declared sets always finds a position
        msg = bc_open(transcript.sender)
        flipped = None
        for ri, (s_rnd, r_rnd) in enumerate(zip(msg.rounds, transcript.receiver.rounds)):
            known = known_bits(r_rnd)
            for side in ("declared_x", "declared_y"):
                declared = list(getattr(s_rnd, side))
                hit = next((si for si, (pos, _) in enumerate(declared) if pos in known), None)
                if hit is not None:
                    pos, val = declared[hit]
                    declared[hit] = (pos, val ^ 1)
                    rounds = list(msg.rounds)
                    rounds[ri] = dataclasses.replace(s_rnd, **{side: tuple(declared)})
                    flipped = dataclasses.replace(msg, rounds=tuple(rounds))
                    break
            if flipped:
                break
        assert flipped is not None, "no conclusive position fell in an announced set"
        result = bc_verify(transcript.receiver, flipped)
        assert not result.accepted
        assert "conclusive" in result.first_inconsistency

    def test_unheld_share_flip_is_caught_only_at_a_conclusive_j_position(self):
        """Flip the share the receiver did not get and one bit of the set
        masking it (J). The ciphertext still checks out, so only a conclusive
        outcome at the flipped position can catch it; honest J holds none
        unless it was topped up, so per round this cheat is caught only when
        the committer flips the share the receiver holds."""
        caught = tried = 0
        for seed in range(20):
            t = bc_commit_over_ot(0, l=1, n=64, variant=PROTOCOL_P2BC, rng=RngStream(600 + seed, 0))
            s_rnd, r_rnd = bc_open(t.sender).rounds[0], t.receiver.rounds[0]
            side, share = ("declared_y", "share1") if r_rnd.sets.m == 0 else ("declared_x", "share0")
            known = known_bits(r_rnd)
            for i, (pos, val) in enumerate(getattr(s_rnd, side)):
                declared = list(getattr(s_rnd, side))
                declared[i] = (pos, val ^ 1)
                bad = dataclasses.replace(
                    s_rnd, **{side: tuple(declared), share: getattr(s_rnd, share) ^ 1}
                )
                msg = OpenMessage(protocol_id=PROTOCOL_P2BC, rounds=(bad,))
                result = bc_verify(t.receiver, msg)
                assert result.accepted == (pos not in known)
                assert not result.accepted or result.recovered_bit == 1
                caught += not result.accepted
                tried += 1
        assert caught == 0 and tried == 20 * k_of(64)

    def test_wrong_protocol_id_is_rejected(self, transcript):
        msg = bc_open(transcript.sender)
        bad = dataclasses.replace(msg, protocol_id=PROTOCOL_P4)
        assert not bc_verify(transcript.receiver, bad).accepted

    def test_dropped_round_is_rejected(self, transcript):
        msg = bc_open(transcript.sender)
        bad = dataclasses.replace(msg, rounds=msg.rounds[:1])
        assert not bc_verify(transcript.receiver, bad).accepted

    def test_inconsistent_shares_across_rounds_are_rejected(self, transcript):
        # both rounds must encode the same XOR; flipping both shares of one round
        # keeps every mask equation true but changes that round's bit
        msg = bc_open(transcript.sender)
        rounds = list(msg.rounds)
        rounds[0] = dataclasses.replace(
            rounds[0], share0=rounds[0].share0 ^ 1, share1=rounds[0].share1 ^ 1
        )
        result = bc_verify(transcript.receiver, dataclasses.replace(msg, rounds=tuple(rounds)))
        assert not result.accepted

    @staticmethod
    def _first_round_replaced(msg, **changes):
        first = dataclasses.replace(msg.rounds[0], **changes)
        return dataclasses.replace(msg, rounds=(first, *msg.rounds[1:]))

    def test_a_share_other_than_a_bit_is_named(self, transcript):
        bad = self._first_round_replaced(bc_open(transcript.sender), share0=2)
        result = bc_verify(transcript.receiver, bad)
        assert result.first_inconsistency == "round 1: shares are not bits"

    def test_a_declared_value_other_than_a_bit_is_named(self, transcript):
        msg = bc_open(transcript.sender)
        (pos, _), *rest = msg.rounds[0].declared_x
        bad = self._first_round_replaced(msg, declared_x=((pos, 2), *rest))
        result = bc_verify(transcript.receiver, bad)
        assert result.first_inconsistency == f"round 1: declared value at position {pos} is not a bit"

    def test_a_changed_transferred_share_is_named(self, transcript):
        # a receiver file whose received share was edited: the opening is honest
        receiver = transcript.receiver
        first = receiver.rounds[0]
        edited = dataclasses.replace(first, received_share=first.received_share ^ 1)
        receiver = dataclasses.replace(receiver, rounds=(edited, *receiver.rounds[1:]))
        result = bc_verify(receiver, bc_open(transcript.sender))
        assert result.first_inconsistency == "round 1: declared share differs from the transferred share"

    def test_a_round_that_decodes_to_the_other_bit_is_named(self, transcript):
        # flip the share the receiver does not hold together with one declared
        # bit of the set J that masks it, at a position the receiver did not
        # learn: the round passes its own checks, only the bits disagree
        msg = bc_open(transcript.sender)
        s_rnd, r_rnd = msg.rounds[0], transcript.receiver.rounds[0]
        side, share = r_rnd.sets.pick(("declared_y", "share1"), ("declared_x", "share0"))
        known = known_bits(r_rnd)
        declared = list(getattr(s_rnd, side))
        i = next(i for i, (pos, _) in enumerate(declared) if pos not in known)
        declared[i] = (declared[i][0], declared[i][1] ^ 1)
        bad = self._first_round_replaced(
            msg, **{side: tuple(declared), share: getattr(s_rnd, share) ^ 1}
        )
        result = bc_verify(transcript.receiver, bad)
        assert result.first_inconsistency == "rounds decode to different bits"


# the sampler each share-split variant's channel pass calls
_SAMPLERS = {
    PROTOCOL_P2BC: "honest_channel",
    PROTOCOL_P3: "p3_measure",
    PROTOCOL_P4: "p4_unblind_and_measure",
}


class TestCommitWaves:
    """A commitment samples every missing round in one channel pass per wave."""

    @pytest.fixture()
    def log(self, monkeypatch):
        """(sampler name, qubits) per sampler call, ("transfer", aborted) per
        round tail; the P4 sampler reads the plain table through `honest_channel`,
        so its pass logs both names."""
        events = []
        for name in _SAMPLERS.values():
            original = getattr(bitcommit, name)

            def sample(*args, _name=name, _original=original):
                events.append((_name, len(args[0])))
                return _original(*args)

            monkeypatch.setattr(bitcommit, name, sample)
        transfer = bitcommit.run_masked_transfer

        def logged_transfer(*args, **kwargs):
            t = transfer(*args, **kwargs)
            events.append(("transfer", t.aborted))
            return t

        monkeypatch.setattr(bitcommit, "run_masked_transfer", logged_transfer)
        return events

    @pytest.mark.parametrize("variant", sorted(OT_VARIANTS))
    def test_one_sampler_call_per_wave_over_the_missing_rounds(self, log, variant):
        l, n = 8, 16
        wave_counts = []
        for seed in range(20):
            log.clear()
            bc_commit_over_ot(seed % 2, l=l, n=n, variant=variant, rng=RngStream(700 + seed, 0))
            waves = []  # [qubits sampled, round tails run, aborts] per wave
            for kind, value in log:
                if kind == _SAMPLERS[variant]:
                    waves.append([value, 0, 0])
                elif kind == "transfer":
                    waves[-1][1] += 1
                    waves[-1][2] += value
            # each wave is one pass over exactly the rounds still missing
            missing = l
            for qubits, tails, aborts in waves:
                assert (qubits, tails) == (missing * n, missing)
                missing = aborts
            assert missing == 0
            wave_counts.append(len(waves))
        # a round-by-round loop would make at least l calls per commit
        assert max(wave_counts) < l
        assert np.mean(wave_counts) < 3

    def test_pooled_round_abort_rate_matches_the_exact_tail(self, log):
        n = 16
        for variant in OT_VARIANTS:
            for seed in range(100):
                bc_commit_over_ot(seed % 2, l=8, n=n, variant=variant, rng=RngStream(800 + seed, 1))
        aborted = [value for kind, value in log if kind == "transfer"]
        expected = 1.0 - p1_exact(n).value
        sigma = math.sqrt(expected * (1.0 - expected) / len(aborted))
        assert abs(np.mean(aborted) - expected) < 5 * sigma

    @pytest.mark.parametrize("variant", sorted(OT_VARIANTS))
    def test_every_round_keeps_its_own_sent_bits(self, variant):
        n = 16
        for seed in range(10):
            t = bc_commit_over_ot(1, l=8, n=n, variant=variant, rng=RngStream(900 + seed, 0))
            for s_rnd, r_rnd in zip(t.sender.rounds, t.receiver.rounds):
                assert s_rnd.bits.shape == r_rnd.decoded.shape == (n,)
                assert r_rnd.decoded.dtype == np.int8 and not r_rnd.decoded.flags.writeable
                known = known_bits(r_rnd)
                assert known
                for pos, val in known.items():
                    assert s_rnd.bits[pos - 1] == val
                assert set(r_rnd.sets.i_set) <= set(known)

    def test_a_channel_that_never_clicks_raises_after_the_last_wave(self, monkeypatch):
        qubits = []

        def never_conclusive(bits, x, u, theta):
            qubits.append(len(bits))
            return np.full(len(bits), -1, dtype=np.int8)

        monkeypatch.setattr(bitcommit, "honest_channel", never_conclusive)
        monkeypatch.setattr(bitcommit, "MAX_WAVES", 7)
        with pytest.raises(ValueError, match="transfer round kept aborting in 7 waves"):
            bc_commit_over_ot(0, l=3, n=16, variant=PROTOCOL_P2BC, rng=RngStream(46, 0))
        assert qubits == [3 * 16] * 7


class TestBooleanFunctions:
    def test_parity_spec(self):
        spec = parity_function(4)
        assert spec.arity == 4
        assert spec((1, 1, 0, 1)) == 1
        assert spec((1, 1, 0, 0)) == 0

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
    def test_parity_immunity_order_by_walsh_transform(self, n):
        spec = parity_function(n)
        assert correlation_immunity_order(spec.func, n) == n - 1

    def test_majority_is_not_correlation_immune(self):
        def majority(bits):
            return 1 if sum(bits) * 2 > len(bits) else 0

        assert correlation_immunity_order(majority, 3) == 0

    def test_walsh_search_arity_guard(self):
        with pytest.raises(ValueError):
            correlation_immunity_order(lambda bits: 0, 13)


class TestStringSampling:
    def test_sampled_strings_hit_the_declared_value(self):
        spec = parity_function(6)
        for b in (0, 1):
            strings = p5_sample_strings(b, 5, spec, RngStream(45, b))
            assert len(strings) == 5
            for s in strings:
                assert len(s) == 6
                assert spec(s) == b

    def test_unsatisfiable_value_raises(self):
        dead = BooleanFunctionSpec(arity=3, func=lambda bits: 0, name="zero")
        with pytest.raises(ValueError):
            p5_sample_strings(1, 2, dead, RngStream(46, 0))

    def test_sampling_is_uniform_over_the_preimage(self):
        spec = parity_function(2)
        counts = {(0, 0): 0, (1, 1): 0}
        reps = 2000
        for rep in range(reps):
            (s,) = p5_sample_strings(0, 1, spec, RngStream(47, rep))
            counts[s] += 1
        sigma = np.sqrt(0.25 / reps)
        assert abs(counts[(0, 0)] / reps - 0.5) < 5 * sigma


class TestGridCommitment:
    def test_measurement_record_never_contradicts_the_encoding(self):
        rng = RngStream(48, 0)
        bits = rng.bits(2 * 300).reshape(2, 300)
        decoded = p5_measure_record(bits, *honest_draws(rng, bits.size))
        values = decoded.ravel().tolist()
        for bit, value in zip(bits.ravel().tolist(), values):
            assert value in (-1, bit)
        assert values.count(-1) < len(values)

    def test_the_grid_is_read_only_bits(self):
        rng = RngStream(48, 1)
        present = np.ones((3, 5), dtype=bool)
        present[1, 2] = False
        x, u = honest_draws(rng, int(present.sum()))
        decoded = p5_measure_record(np.zeros((3, 5), dtype=np.int8), x, u, present)
        assert decoded.shape == (3, 5) and decoded.dtype == np.int8
        assert not decoded.flags.writeable
        assert decoded[1, 2] == -1
        arrived = decoded[present]
        conclusive = arrived >= 0
        assert conclusive.any() and set(arrived.tolist()) <= {-1, 0, 1}
        # a conclusive outcome in basis x decodes x xor 1
        np.testing.assert_array_equal(arrived[conclusive], x[conclusive] ^ 1)

    @pytest.mark.parametrize("b", [0, 1])
    def test_round_trip(self, b):
        spec = parity_function(6)
        t = p5_commit(b, 4, 6, spec, RngStream(49, b))
        result = verify_from_states(t.receiver, p5_open(t.sender))
        assert result.accepted
        assert result.recovered_bit == b

    def test_deferred_measurement_is_refused(self):
        with pytest.raises(ValueError, match="measures at commit"):
            p5_commit(0, 2, 6, parity_function(6), RngStream(55, 0), measure_at_commit=False)

    def test_flipped_declared_bit_is_caught_or_silent_never_wrongly_blamed(self):
        """Opening a tampered string either trips a conclusive record or passes unseen;
        the verifier must reject whenever its record disagrees."""
        spec = parity_function(6)
        caught = 0
        reps = 60
        for rep in range(reps):
            t = p5_commit(0, 4, 6, spec, RngStream(51, rep))
            msg = p5_open(t.sender)
            strings = [list(s) for s in msg.strings]
            strings[0][0] ^= 1
            strings[0][1] ^= 1  # keep the declared function value intact
            bad = dataclasses.replace(
                msg, strings=tuple(tuple(s) for s in strings)
            )
            result = p5_verify(t.receiver, bad)
            expectations = []
            for j in (0, 1):
                value = int(t.receiver.decoded[0, j])
                expectations.append(value >= 0 and value != strings[0][j])
            assert result.accepted == (not any(expectations))
            caught += not result.accepted
        assert caught > 0

    def test_declared_function_value_must_match_every_string(self):
        spec = parity_function(6)
        t = p5_commit(1, 3, 6, spec, RngStream(52, 0))
        msg = p5_open(t.sender)
        strings = [list(s) for s in msg.strings]
        strings[1][2] ^= 1  # now parity of string 1 is 0, not the declared 1
        bad = dataclasses.replace(msg, strings=tuple(tuple(s) for s in strings))
        result = p5_verify(t.receiver, bad)
        assert not result.accepted
        assert "does not match the declared bit" in result.first_inconsistency

    def test_declared_values_other_than_bits_are_rejected(self):
        """Adding 2 at two inconclusive positions keeps the XOR of the string
        at the declared bit and contradicts no conclusive outcome, so only a
        check on the values catches it."""
        spec = parity_function(6)
        t = p5_commit(0, 3, 6, spec, RngStream(58, 0))
        msg = p5_open(t.sender)
        strings = [list(s) for s in msg.strings]
        decoded = t.receiver.decoded[0].tolist()
        a, b = [j for j, value in enumerate(decoded) if value < 0][:2]
        strings[0][a] += 2
        strings[0][b] += 2
        bad = dataclasses.replace(msg, strings=tuple(tuple(s) for s in strings))
        assert spec(strings[0]) == 0
        result = p5_verify(t.receiver, bad)
        assert not result.accepted
        assert "other than 0 and 1" in result.first_inconsistency


def _loop_verify(open_msg, rows, function):
    """The per-qubit P5 verifier the grid replaced, kept as a reference.

    rows[i][j] is the decoded bit of qubit (i, j), or -1 for a qubit that
    never arrived or came out inconclusive.
    """
    if open_msg.bit not in (0, 1):
        return bitcommit._reject("declared value is not a bit")
    if len(open_msg.strings) != len(rows):
        return bitcommit._reject("string count mismatch")
    for i, string in enumerate(open_msg.strings, start=1):
        if len(string) != function.arity:
            return bitcommit._reject(f"string {i}: wrong length")
        if not set(string) <= {0, 1}:
            return bitcommit._reject(f"string {i}: holds a value other than 0 and 1")
        if function(string) != open_msg.bit:
            return bitcommit._reject(f"string {i}: function value does not match the declared bit")
    for i, (string, row) in enumerate(zip(open_msg.strings, rows), start=1):
        for j, value in enumerate(row, start=1):
            if value >= 0 and value != string[j - 1]:
                return bitcommit._reject(
                    f"qubit ({i},{j}): conclusive outcome contradicts the declared bit"
                )
    return bitcommit.VerifyResult(accepted=True, recovered_bit=open_msg.bit, first_inconsistency=None)


@st.composite
def _grid_and_opening(draw):
    """A receiver's decoded grid with learned and unlearned cells, and an
    opening of the sent strings with some of these faults: flipped bits
    (one flip changes the string's parity, a pair keeps it), a flipped
    conclusive bit, a value other than a bit, a string too short or too long,
    a string too many or too few, and the wrong declared bit."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    bit = draw(st.integers(0, 1))
    sent = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=m, max_size=m)))
    sent[:, -1] ^= (sent.sum(axis=1) & 1) ^ bit  # every string has parity `bit`
    learned = np.array(draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=m, max_size=m)))
    # a conclusive outcome never errs; a missing or inconclusive qubit decodes -1
    decoded = np.where(learned, sent, -1).astype(np.int8)
    strings = sent.tolist()
    for i, j in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 2)), max_size=4)):
        strings[i][j] ^= 1
        strings[i][j + 1] ^= 1
    if draw(st.integers(0, 3)) == 3:
        strings[draw(st.integers(0, m - 1))][draw(st.integers(0, n - 1))] ^= 1
    fault = draw(st.sampled_from(["none", "contradict", "value", "short", "long", "fewer", "more", "bit"]))
    i = draw(st.integers(0, m - 1))
    conclusive = np.argwhere(learned).tolist()
    if fault == "contradict" and conclusive:
        # flip a conclusive cell and its neighbour, which keeps the parity
        i, j = conclusive[draw(st.integers(0, len(conclusive) - 1))]
        strings[i][j] ^= 1
        strings[i][j - 1] ^= 1
    elif fault == "value":
        strings[i][draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1, 2, 3]))
    elif fault == "short":
        strings[i].pop()
    elif fault == "long":
        strings[i].append(0)
    elif fault == "fewer":
        strings.pop(i)
    elif fault == "more":
        strings.append(list(strings[i]))
    elif fault == "bit":
        bit ^= 1
    opening = P5OpenMessage(protocol_id=PROTOCOL_P5, bit=bit, strings=tuple(map(tuple, strings)))
    return decoded, opening


@settings(max_examples=400, deadline=None)
@given(case=_grid_and_opening())
def test_grid_verifier_matches_the_per_qubit_loop(case):
    decoded, opening = case
    function = parity_function(decoded.shape[1])
    decoded.flags.writeable = False
    receiver = P5ReceiverState(protocol_id=PROTOCOL_P5, function=function, decoded=decoded)
    got = p5_verify(receiver, opening)
    want = _loop_verify(opening, decoded.tolist(), function)
    assert got == want


class TestSerialization:
    @pytest.mark.parametrize("variant", sorted(OT_VARIANTS))
    def test_ot_variant_state_round_trip(self, variant):
        t = bc_commit_over_ot(1, l=2, n=16, variant=variant, rng=RngStream(53, 0))
        sender = sender_state_from_dict(sender_state_to_dict(t.sender))
        receiver = receiver_state_from_dict(receiver_state_to_dict(t.receiver))
        msg = open_message_from_dict(open_message_to_dict(bc_open(sender)))
        result = verify_from_states(receiver, msg)
        assert result.accepted
        assert result.recovered_bit == 1

    def test_grid_state_round_trip(self):
        spec = parity_function(6)
        t = p5_commit(0, 3, 6, spec, RngStream(54, 0))
        sender = sender_state_from_dict(sender_state_to_dict(t.sender))
        receiver = receiver_state_from_dict(receiver_state_to_dict(t.receiver))
        msg = open_message_from_dict(open_message_to_dict(p5_open(sender)))
        result = verify_from_states(receiver, msg)
        assert result.accepted
        assert result.recovered_bit == 0

    def test_protocol_mismatch_is_rejected(self):
        t_ot = bc_commit_over_ot(0, l=2, n=16, variant=PROTOCOL_P2BC, rng=RngStream(56, 0))
        spec = parity_function(6)
        t_p5 = p5_commit(0, 2, 6, spec, RngStream(57, 0))
        result = verify_from_states(t_ot.receiver, p5_open(t_p5.sender))
        assert not result.accepted
        assert "protocol" in result.first_inconsistency
