"""Bit commitment over the transfer channel, in all four variants."""

import dataclasses

import numpy as np
import pytest
import scipy.stats

from qotlab.bitcommit import (
    OT_VARIANTS,
    PROTOCOL_P2BC,
    PROTOCOL_P3,
    PROTOCOL_P4,
    PROTOCOL_P5,
    BooleanFunctionSpec,
    OpenMessage,
    OpenRound,
    bc_commit_over_ot,
    bc_open,
    bc_verify,
    bell_state,
    blinded_amps,
    correlation_immunity_order,
    open_message_from_dict,
    open_message_to_dict,
    p3_bases,
    p3_measure,
    p3_pair_states,
    p3_prepare_and_encode,
    p4_encode,
    p4_prepare_blinded,
    p4_unblind_and_measure,
    p5_commit,
    p5_measure_record,
    p5_open,
    p5_open_verify,
    p5_record_value,
    p5_sample_strings,
    p5_verify_records,
    parity_function,
    receiver_state_from_dict,
    receiver_state_to_dict,
    sender_state_from_dict,
    sender_state_to_dict,
    verify_from_states,
)
from qotlab.ot12 import k_of
from qotlab.qsim import RngStream, StateVector, born_probabilities


class TestEntangledEncoding:
    def test_encoding_rotation_identity(self):
        """Rotating the transit half of the pair lands exactly between two pair states."""
        amps = p3_prepare_and_encode(np.array([0, 1], dtype=np.int8))
        np.testing.assert_allclose(amps[0], bell_state("phi-").amps, atol=1e-12)
        expected = (bell_state("phi-").amps + bell_state("psi+").amps) / np.sqrt(2.0)
        np.testing.assert_allclose(amps[1], expected, atol=1e-12)
        for amp, state in zip(amps, p3_pair_states()):
            np.testing.assert_allclose(amp, state.amps, atol=1e-12)

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
        p0_in_b0 = dict(zip(basis0.labels, born_probabilities(state0, basis0)))
        p1_in_b0 = dict(zip(basis0.labels, born_probabilities(state1, basis0)))
        assert p0_in_b0["psi+"] == pytest.approx(0.0, abs=1e-12)
        assert p1_in_b0["psi+"] == pytest.approx(0.5, abs=1e-12)
        p0_in_b1 = dict(zip(basis1.labels, born_probabilities(state0, basis1)))
        p1_in_b1 = dict(zip(basis1.labels, born_probabilities(state1, basis1)))
        conclusive_for_0 = "phi-minus-psi+"
        assert p1_in_b1[conclusive_for_0] == pytest.approx(0.0, abs=1e-12)
        assert p0_in_b1[conclusive_for_0] == pytest.approx(0.5, abs=1e-12)

    def test_measurement_conclusive_rate(self):
        rng = RngStream(31, 0)
        n, reps = 200, 20
        total = 0
        for rep in range(reps):
            bits = np.array([rng.bit() for _ in range(n)], dtype=np.int8)
            record = p3_measure(p3_prepare_and_encode(bits), RngStream(32, rep))
            for pos, val in record.conclusive:
                assert bits[pos - 1] == val
            total += len(record.conclusive)
        rate = total / (n * reps)
        sigma = np.sqrt(0.25 * 0.75 / (n * reps))
        assert abs(rate - 0.25) < 5 * sigma


class TestBlindedEncoding:
    def test_blinded_qubit_is_a_plane_rotation_of_zero(self):
        np.testing.assert_allclose(blinded_amps(0.7), [np.cos(0.7), np.sin(0.7)], atol=1e-12)
        angle = 0.7 + np.pi / 4
        shifted = blinded_amps(0.7, bits=1)
        np.testing.assert_allclose(shifted, [np.cos(angle), np.sin(angle)], atol=1e-12)
        grid = blinded_amps(np.array([[0.7, 0.2]]), np.array([[1, 0]]))
        assert grid.shape == (1, 2, 2)
        np.testing.assert_allclose(grid[0, 0], shifted, atol=1e-12)

    def test_blinding_angles_are_validated(self):
        from qotlab.bitcommit import BlindedQubitRecord

        with pytest.raises(ValueError):
            BlindedQubitRecord(alphas=np.array([0.5, -0.1]))
        with pytest.raises(ValueError):
            BlindedQubitRecord(alphas=np.array([2 * np.pi]))

    def test_unblinding_recovers_honest_statistics(self):
        rng = RngStream(33, 0)
        n = 400
        record, states = p4_prepare_blinded(n, rng)
        bits = np.array([rng.bit() for _ in range(n)], dtype=np.int8)
        encoded = p4_encode(states, bits)
        received = p4_unblind_and_measure(encoded, record, rng)
        for pos, val in received.conclusive:
            assert bits[pos - 1] == val
        rate = len(received.conclusive) / n
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert abs(rate - 0.25) < 5 * sigma


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
            known = dict(r_rnd.conclusive)
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
            side, share = ("declared_y", "share1") if r_rnd.m == 0 else ("declared_x", "share0")
            known = dict(r_rnd.conclusive)
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


class TestBooleanFunctions:
    def test_parity_spec(self):
        spec = parity_function(4)
        assert spec.arity == 4
        assert spec.correlation_immunity_order == 3
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
        dead = BooleanFunctionSpec(
            arity=3, func=lambda bits: 0, correlation_immunity_order=0, name="zero"
        )
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
    def test_record_value_mapping(self):
        assert p5_record_value(("B0", "perp")) == 1
        assert p5_record_value(("B1", "perp")) == 0
        assert p5_record_value(("B0", "along")) is None

    def test_measurement_record_never_contradicts_the_encoding(self):
        rng = RngStream(48, 0)
        bits = rng.bits(2 * 300).reshape(2, 300)
        alphas = rng.gen.uniform(0, 2 * np.pi, size=bits.shape)
        records = p5_measure_record(blinded_amps(alphas, bits), alphas, rng)
        values = [p5_record_value(rec) for row in records for rec in row]
        for bit, value in zip(bits.ravel().tolist(), values):
            assert value in (None, bit)
        assert values.count(None) < len(values)

    @pytest.mark.parametrize("measure_at_commit", [False, True])
    @pytest.mark.parametrize("b", [0, 1])
    def test_round_trip(self, b, measure_at_commit):
        spec = parity_function(6)
        t = p5_commit(b, 4, 6, spec, RngStream(49, b), measure_at_commit=measure_at_commit)
        result = p5_open_verify(t.sender, t.receiver, RngStream(50, b))
        assert result.accepted
        assert result.recovered_bit == b

    def test_flipped_declared_bit_is_caught_or_silent_never_wrongly_blamed(self):
        """Opening a tampered string either trips a conclusive record or passes unseen;
        the verifier must reject whenever its record disagrees."""
        spec = parity_function(6)
        caught = 0
        reps = 60
        for rep in range(reps):
            t = p5_commit(0, 4, 6, spec, RngStream(51, rep), measure_at_commit=True)
            msg = p5_open(t.sender)
            strings = [list(s) for s in msg.strings]
            strings[0][0] ^= 1
            strings[0][1] ^= 1  # keep the declared function value intact
            bad = dataclasses.replace(
                msg, strings=tuple(tuple(s) for s in strings)
            )
            result = p5_verify_records(bad, t.receiver.records, spec)
            expectations = []
            for j in (0, 1):
                record = t.receiver.records[0][j]
                value = None if record is None else p5_record_value(record)
                expectations.append(value is not None and value != strings[0][j])
            assert result.accepted == (not any(expectations))
            caught += not result.accepted
        assert caught > 0

    def test_declared_function_value_must_match_every_string(self):
        spec = parity_function(6)
        t = p5_commit(1, 3, 6, spec, RngStream(52, 0), measure_at_commit=True)
        msg = p5_open(t.sender)
        strings = [list(s) for s in msg.strings]
        strings[1][2] ^= 1  # now parity of string 1 is 0, not the declared 1
        bad = dataclasses.replace(msg, strings=tuple(tuple(s) for s in strings))
        result = p5_verify_records(bad, t.receiver.records, spec)
        assert not result.accepted
        assert "does not match the declared bit" in result.first_inconsistency


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
        t = p5_commit(0, 3, 6, spec, RngStream(54, 0), measure_at_commit=True)
        sender = sender_state_from_dict(sender_state_to_dict(t.sender))
        receiver = receiver_state_from_dict(receiver_state_to_dict(t.receiver))
        msg = open_message_from_dict(open_message_to_dict(p5_open(sender)))
        result = verify_from_states(receiver, msg)
        assert result.accepted
        assert result.recovered_bit == 0

    def test_grid_receiver_with_live_qubits_does_not_serialize(self):
        spec = parity_function(6)
        t = p5_commit(0, 2, 6, spec, RngStream(55, 0), measure_at_commit=False)
        with pytest.raises(ValueError):
            receiver_state_to_dict(t.receiver)

    def test_protocol_mismatch_is_rejected(self):
        t_ot = bc_commit_over_ot(0, l=2, n=16, variant=PROTOCOL_P2BC, rng=RngStream(56, 0))
        spec = parity_function(6)
        t_p5 = p5_commit(0, 2, 6, spec, RngStream(57, 0), measure_at_commit=True)
        result = verify_from_states(t_ot.receiver, p5_open(t_p5.sender))
        assert not result.accepted
        assert "protocol" in result.first_inconsistency
