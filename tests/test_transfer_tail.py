"""The classical tail on plain data against the per-record path it replaced.

`run_masked_transfer` takes a run's sent bits and its decoded row as lists,
and a commitment hands it the rows of each wave's one channel pass.
A completed round keeps its rows: the sent bits and the decoded bits, -1
where nothing was learned.
The reference below is the earlier route: per-round `SenderRecord` and
`ReceiverRecord` built and checked from the pass, the announcement drawn
from the receiver record, then `sender_encrypt` and `receiver_decrypt`.
Both must make the same draws in the same order, so every field and the
generator's final state agree.
"""

import math

import pytest

from qotlab.bitcommit import (
    ENCODE_ANGLE,
    MAX_WAVES,
    OT_VARIANTS,
    PROTOCOL_P2BC,
    PROTOCOL_P3,
    CommitReceiverState,
    CommitSenderState,
    ReceiverCommitRound,
    SenderCommitRound,
    bc_commit_over_ot,
    blinded_amps,
    blinding_angles,
    p3_measure,
)
from qotlab.ot12 import (
    DEFAULT_ALPHA,
    IndexSets,
    receiver_decrypt,
    run_ot12,
    sender_encrypt,
    transfer_k,
)
from qotlab.qsim import RngStream
from qotlab.rot import HONEST, USD, ReceiverRecord, RotConfig, SenderRecord, honest_draws, run_rot
from rotation_route import unblind_and_measure

SEEDS = range(100)


def reference_choose_index_sets(receiver: ReceiverRecord, n: int, k: int, rng: RngStream):
    """The announcement as drawn from a receiver record: I from its
    conclusive positions, J by its strategy, then the slot bit."""
    conclusive = [pos for pos, _ in receiver.conclusive]
    if len(conclusive) < k:
        return None
    i_set = rng.subset(conclusive, k)
    taken = set(i_set)
    leftovers = [p for p in conclusive if p not in taken]
    known = set(conclusive)
    unknown = [p for p in range(1, n + 1) if p not in known]
    first, second = (leftovers, unknown) if receiver.strategy == USD else (unknown, leftovers)
    if len(first) >= k:
        j_set = rng.subset(first, k)
    else:
        j_set = sorted(first + rng.subset(second, k - len(first)))
    return IndexSets(i_set=tuple(i_set), j_set=tuple(j_set), m=rng.bit())


def reference_tail(sender: SenderRecord, receiver: ReceiverRecord, n, k, b0, b1, rng):
    """(sets, c0, c1, received bit) of one run from its records; all None on abort."""
    sets = reference_choose_index_sets(receiver, n, k, rng)
    if sets is None:
        return None, None, None, None
    c0, c1 = sender_encrypt(sender.bits.tolist(), sets.x_set, sets.y_set, b0, b1)
    cmap = receiver.conclusive_map()
    received = receiver_decrypt(sets.pick(c0, c1), [cmap.get(p) for p in sets.i_set])
    return sets, c0, c1, received


def reference_commit_over_ot(b, l, n, variant, rng, theta=ENCODE_ANGLE, alpha=DEFAULT_ALPHA):
    """The commitment with one checked record pair per round of each wave."""
    k = transfer_k(n, alpha)
    sender_rounds, receiver_rounds = [], []
    for _wave in range(MAX_WAVES):
        missing = l - len(sender_rounds)
        shares0 = rng.bits(missing).tolist()
        size = missing * n
        if variant == PROTOCOL_P2BC:
            sender, receiver = run_rot(RotConfig(n=size, theta=theta), HONEST, rng)
        elif variant == PROTOCOL_P3:
            bits = rng.bits(size)
            x, u = honest_draws(rng, size)
            sender = SenderRecord(bits=bits)
            receiver = ReceiverRecord.from_decoded(HONEST, *p3_measure(bits, x, u))
        else:
            alphas = blinding_angles(rng, size)
            bits = rng.bits(size)
            encoded = blinded_amps(alphas, bits)
            x, u = honest_draws(rng, size)
            sender = SenderRecord(bits=bits)
            receiver = ReceiverRecord.from_decoded(
                HONEST, x, unblind_and_measure(encoded, alphas, x, u)
            )
        for r, share0 in enumerate(shares0):
            lo = r * n
            round_sender = SenderRecord(bits=sender.bits[lo:lo + n])
            round_receiver = ReceiverRecord(
                strategy=HONEST,
                basis_choices=receiver.basis_choices[lo:lo + n],
                conclusive=tuple((p - lo, v) for p, v in receiver.conclusive if lo < p <= lo + n),
            )
            share1 = share0 ^ b
            sets, c0, c1, received = reference_tail(
                round_sender, round_receiver, n, k, share0, share1, rng
            )
            if sets is None:
                continue
            sender_rounds.append(
                SenderCommitRound(share0, share1, round_sender.bits, sets.x_set, sets.y_set, c0, c1)
            )
            decoded = [-1] * n
            for pos, val in round_receiver.conclusive:
                decoded[pos - 1] = val
            receiver_rounds.append(ReceiverCommitRound(sets, decoded, c0, c1, received))
        if len(sender_rounds) == l:
            break
    return (
        CommitSenderState(variant, b, n, k, theta, tuple(sender_rounds)),
        CommitReceiverState(variant, n, k, theta, tuple(receiver_rounds)),
    )


def _sender_fields(state: CommitSenderState):
    head = (state.protocol_id, state.bit, state.n, state.k, state.theta)
    rounds = [
        (r.share0, r.share1, r.bits.tolist(), r.x_set, r.y_set, r.c0, r.c1) for r in state.rounds
    ]
    return head, rounds


def _receiver_fields(state: CommitReceiverState):
    head = (state.protocol_id, state.n, state.k, state.theta)
    rounds = [(r.sets, list(r.decoded), r.c0, r.c1, r.received_share) for r in state.rounds]
    return head, rounds


@pytest.mark.parametrize("n", [6, 16, 24])
@pytest.mark.parametrize("l", [1, 3, 8])
@pytest.mark.parametrize(
    "variant, theta",
    [*((v, ENCODE_ANGLE) for v in sorted(OT_VARIANTS)), (PROTOCOL_P2BC, 0.7)],
)
def test_a_commitment_equals_the_per_record_reference(variant, theta, l, n):
    for seed in SEEDS:
        b = seed % 2
        rng, ref_rng = RngStream(seed, 8), RngStream(seed, 8)
        t = bc_commit_over_ot(b, l, n, variant, rng, theta=theta)
        ref_sender, ref_receiver = reference_commit_over_ot(b, l, n, variant, ref_rng, theta=theta)
        assert _sender_fields(t.sender) == _sender_fields(ref_sender), seed
        assert _receiver_fields(t.receiver) == _receiver_fields(ref_receiver), seed
        assert rng.gen.bit_generator.state == ref_rng.gen.bit_generator.state, seed
        for row in [r.bits for r in t.sender.rounds] + [r.decoded for r in t.receiver.rounds]:
            assert row.dtype == "int8" and not row.flags.writeable


@pytest.mark.parametrize("theta", [math.pi / 4, 0.7])
@pytest.mark.parametrize("strategy", [HONEST, USD])
@pytest.mark.parametrize("n", [16, 64])
def test_a_transfer_equals_the_per_record_reference(strategy, theta, n):
    """run_ot12 wraps the tail's result with both records; the discriminating
    receiver's J comes from its leftover conclusive positions there too."""
    k = transfer_k(n)
    for seed in SEEDS:
        b0, b1 = seed % 2, (seed // 2) % 2
        rng, ref_rng = RngStream(seed, 2), RngStream(seed, 2)
        t = run_ot12(n, b0, b1, strategy, rng, theta=theta)
        sender, receiver = run_rot(RotConfig(n=n, theta=theta), strategy, ref_rng)
        expected = reference_tail(sender, receiver, n, k, b0, b1, ref_rng)
        assert (t.sets, t.c0, t.c1, t.b_received) == expected, seed
        assert t.aborted == (expected[0] is None)
        assert t.sender.bits.tolist() == sender.bits.tolist()
        assert t.receiver.conclusive == receiver.conclusive and t.strategy == strategy
        assert rng.gen.bit_generator.state == ref_rng.gen.bit_generator.state, seed
