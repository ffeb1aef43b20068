"""Bit commitment from oblivious transfer, in four construction variants.

Three variants share one skeleton: per round, the committer splits her bit b
into uniform shares (b0, b1) with b = b0 xor b1 and plays the sender in a
one-out-of-two transfer of the shares, so the receiver ends up holding one
share of every round but can never combine two. They differ only in the
qubit channel underneath:

* "P2-BC"  the plain non-orthogonal-pair channel,
* "P3"     an entangled-pair channel where the receiver keeps half of each
           pair, the committer rotates the transit half to encode her bit,
           and the receiver measures the reunited pair in one of two
           four-outcome bases,
* "P4"     the plain channel with receiver-side blinding: the receiver
           pre-rotates each qubit by a secret uniform angle and undoes it
           on return, which leaves honest statistics untouched but denies
           the committer a known reference frame.

The fourth variant ("P5") commits directly: the committer picks several
n-bit strings whose image under a public correlation-immune boolean function
equals b, encodes each string qubit-wise on the receiver's blinded qubits,
and at open declares everything; the receiver checks his conclusive
measurement outcomes against the declared strings.

Opening always means declaring all round randomness; verification replays
the classical consistency conditions and rejects on the first contradiction.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .ot12 import DEFAULT_ALPHA, IndexSets, mask, run_masked_transfer, transfer_k
from .qsim import (
    ProjectiveBasis,
    RngStream,
    StateVector,
    apply_on_qubit,
    bell_state,
    born_probabilities,
    rotation_plane,
    running_sums,
)
from .rot import honest_channel, honest_draws, sample_table

# Not used below (the channels sample cached tables), but bench/tracing.py
# wraps the per-state engine and the plain run under these names here.
from .qsim import measure_projective  # noqa: F401
from .rot import run_rot  # noqa: F401

PROTOCOL_P2BC = "P2-BC"
PROTOCOL_P3 = "P3"
PROTOCOL_P4 = "P4"
PROTOCOL_P5 = "P5"

OT_VARIANTS = (PROTOCOL_P2BC, PROTOCOL_P3, PROTOCOL_P4)

ENCODE_ANGLE = float(np.pi / 4)

# channel passes a share-split commitment makes before it stops retrying
MAX_WAVES = 1000

# ---------------------------------------------------------------------------
# entangled-pair channel ("P3")

# a table entry at or below this is an outcome the pair state cannot give
_SUPPORT_TOL = 1e-9


@functools.lru_cache(maxsize=1)
def p3_bases() -> tuple[ProjectiveBasis, ProjectiveBasis]:
    """The receiver's two pair bases.

    Basis 0 is the four maximally entangled pair states; the psi+ outcome
    only occurs for an encoded 1. Basis 1 consists of the four balanced
    combinations below; the (phi-) - (psi+) combination only occurs for an
    encoded 0. Each basis identifies the encoded bit on one outcome out of
    four, giving the same conclusive rate 1/4 as the plain channel.
    """
    phip, phim = bell_state("phi+"), bell_state("phi-")
    psip, psim = bell_state("psi+"), bell_state("psi-")

    def mix(a: StateVector, b: StateVector, sign: float) -> StateVector:
        return StateVector(num_qubits=2, amps=(a.amps + sign * b.amps) / np.sqrt(2.0))

    basis0 = ProjectiveBasis(
        states=(phip, phim, psip, psim), labels=("phi+", "phi-", "psi+", "psi-")
    )
    basis1 = ProjectiveBasis(
        states=(mix(phim, psip, 1.0), mix(phim, psip, -1.0), mix(phip, psim, 1.0), mix(phip, psim, -1.0)),
        labels=("phi-plus-psi+", "phi-minus-psi+", "phi+plus-psi-", "phi+minus-psi-"),
    )
    return basis0, basis1


@functools.lru_cache(maxsize=1)
def p3_pair_states() -> tuple[StateVector, StateVector]:
    """Joint pair states after the committer's conditional transit rotation.

    The receiver prepares each pair in the phi- state and sends qubit 0 over;
    the committer rotates it by pi/4 exactly when her bit is 1, which turns
    phi- into (phi- + psi+)/sqrt(2), then returns it. Entry b is the pair
    state for bit b.
    """
    base = bell_state("phi-")
    return base, apply_on_qubit(base, 0, rotation_plane(ENCODE_ANGLE))


@functools.lru_cache(maxsize=1)
def p3_born_table() -> np.ndarray:
    """The pair channel's outcome probabilities, read-only: row 2*r + x
    measures the pair state for bit r in pair basis x, the layout of
    `rot.born_table`, one single-state Born rule call per row. A receiver
    gathers one row per pair from here."""
    bases = p3_bases()
    table = np.array([born_probabilities(s, bases[x]) for s in p3_pair_states() for x in (0, 1)])
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=1)
def p3_born_sums() -> np.ndarray:
    """The `running_sums` of `p3_born_table`, built once."""
    return running_sums(p3_born_table())


def p3_possible() -> np.ndarray:
    """possible[r, x, o]: the pair state for bit r can give outcome o in
    pair basis x, read off `p3_born_table`."""
    return (p3_born_table() > _SUPPORT_TOL).reshape(2, 2, 4)


@functools.lru_cache(maxsize=1)
def _p3_decode() -> np.ndarray:
    """Decoded bit per (basis, outcome index): r where only the pair state
    for bit r can give the outcome, else -1."""
    possible = p3_possible()
    only = possible & ~possible[::-1]
    decode = np.where(only.any(axis=0), only[1], -1).astype(np.int8)
    decode.flags.writeable = False
    return decode


def p3_measure(r_bits: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Measure the returned pair of each bit of r_bits in pair basis x[i],
    sampled from its `p3_born_sums` column with uniform u[i]."""
    return sample_table(p3_born_sums(), _p3_decode(), r_bits, x, u)


# ---------------------------------------------------------------------------
# blinded single-qubit channel ("P4", also the qubit layer of "P5")


def blinding_angles(rng: RngStream, shape) -> np.ndarray:
    """The receiver's secret blinding angles, uniform on [0, 2 pi)."""
    return rng.gen.uniform(0.0, 2 * np.pi, size=shape)


def p4_unblind_and_measure(bits: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The blinded receiver's pass over the returned qubits.

    The receiver turns |0> by a secret angle, the committer turns it by the
    encoding angle iff her bit is 1, and the receiver turns it back. The
    encoding rotation commutes with the blinding, so after unblinding an
    encoded 0 is |0> and an encoded 1 is |+>: the plain coding pair at pi/4,
    whatever the angles were. So the honest receiver samples the plain
    channel's table at `ENCODE_ANGLE`, with the draws of `honest_draws`.
    """
    return honest_channel(bits, x, u, ENCODE_ANGLE)


# ---------------------------------------------------------------------------
# share-splitting commitment over the transfer layer


@dataclass(frozen=True)
class SenderCommitRound:
    """One completed round on the committer's side; `bits` is the round's
    read-only int8 row of sent bits."""

    share0: int
    share1: int
    bits: np.ndarray
    x_set: tuple[int, ...]
    y_set: tuple[int, ...]
    c0: int
    c1: int


@dataclass(frozen=True)
class ReceiverCommitRound:
    """One completed round on the receiver's side; `decoded` is the round's
    read-only int8 row of decoded bits, -1 where nothing was learned."""

    sets: IndexSets
    decoded: np.ndarray
    c0: int
    c1: int
    received_share: int


@dataclass(frozen=True)
class CommitSenderState:
    protocol_id: str
    bit: int
    n: int
    k: int
    theta: float
    rounds: tuple[SenderCommitRound, ...]


@dataclass(frozen=True)
class CommitReceiverState:
    protocol_id: str
    n: int
    k: int
    theta: float
    rounds: tuple[ReceiverCommitRound, ...]


@dataclass(frozen=True)
class CommitTranscript:
    """Both ends of a finished commit; only the sender side knows the bit."""

    sender: CommitSenderState | P5SenderState
    receiver: CommitReceiverState | P5ReceiverState


@dataclass(frozen=True)
class OpenRound:
    share0: int
    share1: int
    declared_x: tuple[tuple[int, int], ...]
    declared_y: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class OpenMessage:
    protocol_id: str
    rounds: tuple[OpenRound, ...]


@dataclass(frozen=True)
class VerifyResult:
    accepted: bool
    recovered_bit: Optional[int]
    first_inconsistency: Optional[str]

    def __post_init__(self):
        if self.accepted and (self.recovered_bit is None or self.first_inconsistency is not None):
            raise ValueError("an accepting result carries a bit and no inconsistency")
        if not self.accepted and self.first_inconsistency is None:
            raise ValueError("a rejecting result must name the first inconsistency")


def _reject(reason: str) -> VerifyResult:
    return VerifyResult(accepted=False, recovered_bit=None, first_inconsistency=reason)


def _ot_channel(
    variant: str, rounds: int, n: int, theta: float, rng: RngStream
) -> tuple[np.ndarray, np.ndarray]:
    """The qubit phase of `rounds` transfer rounds, sampled as one pass: the
    sent bits and the receiver's decoded bits (-1 where inconclusive), each
    a read-only (rounds, n) int8 array. The draws are the P4 receiver's
    blinding angles, the sent bits, then the receiver's `honest_draws`."""
    size = rounds * n
    if variant == PROTOCOL_P4:
        # the receiver's secret angles; unblinding cancels them (p4_unblind_and_measure)
        blinding_angles(rng, size)
    bits = rng.bits(size)
    x, u = honest_draws(rng, size)
    if variant == PROTOCOL_P2BC:
        decoded = honest_channel(bits, x, u, theta)
    elif variant == PROTOCOL_P3:
        decoded = p3_measure(bits, x, u)
    else:
        decoded = p4_unblind_and_measure(bits, x, u)
    bits.flags.writeable = False
    return bits.reshape(rounds, n), decoded.reshape(rounds, n)


def check_channel_angle(variant: str, theta: float) -> float:
    """theta, refused unless it lies in (0, pi/2] and, for the pair and
    blinded channels, within 1e-12 of the pi/4 they fix."""
    if not 0.0 < theta <= np.pi / 2:  # also refuses nan
        raise ValueError(f"theta must lie in (0, pi/2], got {theta!r}")
    if variant != PROTOCOL_P2BC and abs(theta - ENCODE_ANGLE) > 1e-12:
        raise ValueError(f"the pair and blinded channels fix theta at pi/4, got {theta!r}")
    return theta


def bc_commit_over_ot(
    b: int,
    l: int,
    n: int,
    variant: str,
    rng: RngStream,
    theta: float = ENCODE_ANGLE,
    alpha: Fraction = DEFAULT_ALPHA,
) -> CommitTranscript:
    """Commit bit b over l transfer rounds.

    The rounds run in waves: each wave draws the shares and one channel pass
    for every round still missing, and only the rounds that aborted go into
    the next wave, for at most MAX_WAVES waves. Completed rounds are kept in
    the order they completed.
    """
    if b not in (0, 1):
        raise ValueError("the committed value must be a bit")
    if l < 1:
        raise ValueError("need at least one round")
    if variant not in OT_VARIANTS:
        raise ValueError(f"variant must be one of {OT_VARIANTS}")
    check_channel_angle(variant, theta)
    k = transfer_k(n, alpha)
    sender_rounds = []
    receiver_rounds = []
    for _wave in range(MAX_WAVES):
        missing = l - len(sender_rounds)
        shares0 = rng.bits(missing).tolist()
        bits, decoded = _ot_channel(variant, missing, n, theta, rng)
        for r, (share0, sent, cells) in enumerate(zip(shares0, bits.tolist(), decoded.tolist())):
            share1 = share0 ^ b
            t = run_masked_transfer(sent, cells, n, k, share0, share1, rng)
            if t.aborted:
                continue
            sets = t.sets
            sender_rounds.append(
                SenderCommitRound(share0, share1, bits[r], sets.x_set, sets.y_set, t.c0, t.c1)
            )
            receiver_rounds.append(
                ReceiverCommitRound(sets, decoded[r], t.c0, t.c1, t.b_received)
            )
        if len(sender_rounds) == l:
            break
    else:
        raise ValueError(
            f"transfer round kept aborting in {MAX_WAVES} waves: n = {n} qubits "
            f"seldom give k = {k} conclusive ones at theta = {theta:g}"
        )
    return CommitTranscript(
        sender=CommitSenderState(
            protocol_id=variant, bit=b, n=n, k=k, theta=theta, rounds=tuple(sender_rounds)
        ),
        receiver=CommitReceiverState(
            protocol_id=variant, n=n, k=k, theta=theta, rounds=tuple(receiver_rounds)
        ),
    )


def bc_open(sender_state: CommitSenderState) -> OpenMessage:
    """Declare every round's shares and the sent bits over both announced sets."""
    rounds = []
    for rnd in sender_state.rounds:
        sent = rnd.bits.tolist()
        rounds.append(
            OpenRound(
                share0=rnd.share0,
                share1=rnd.share1,
                declared_x=tuple((p, sent[p - 1]) for p in rnd.x_set),
                declared_y=tuple((p, sent[p - 1]) for p in rnd.y_set),
            )
        )
    return OpenMessage(protocol_id=sender_state.protocol_id, rounds=tuple(rounds))


def bc_verify(receiver_state: CommitReceiverState, open_msg: OpenMessage) -> VerifyResult:
    """Accept iff every declaration is consistent with what the receiver saw.

    Checks per round: the declared positions are the announced sets, no
    declared bit contradicts a conclusive measurement, both ciphertexts
    reproduce under the declared shares and the transfer's mask rule, and
    the declared share in the receiver's slot (the transfer's slot rule)
    matches the share actually transferred. All rounds must decode to one
    and the same bit.
    """
    if open_msg.protocol_id != receiver_state.protocol_id:
        return _reject("protocol identifier mismatch")
    if len(open_msg.rounds) != len(receiver_state.rounds):
        return _reject("round count mismatch")
    decoded_bits = []
    for idx, (orec, rrec) in enumerate(zip(open_msg.rounds, receiver_state.rounds), start=1):
        if orec.share0 not in (0, 1) or orec.share1 not in (0, 1):
            return _reject(f"round {idx}: shares are not bits")
        if tuple(p for p, _ in orec.declared_x) != rrec.sets.x_set:
            return _reject(f"round {idx}: declared X positions differ from the announcement")
        if tuple(p for p, _ in orec.declared_y) != rrec.sets.y_set:
            return _reject(f"round {idx}: declared Y positions differ from the announcement")
        cells = rrec.decoded.tolist()
        for pos, val in orec.declared_x + orec.declared_y:
            if val not in (0, 1):
                return _reject(f"round {idx}: declared value at position {pos} is not a bit")
            # a decoded cell contradicts a declared bit iff it is the other bit; -1 is neither
            if cells[pos - 1] == val ^ 1:
                return _reject(
                    f"round {idx}: declared bit at position {pos} contradicts a conclusive outcome"
                )
        if rrec.c0 != orec.share0 ^ mask([val for _, val in orec.declared_x]):
            return _reject(f"round {idx}: ciphertext c0 inconsistent with the declared opening")
        if rrec.c1 != orec.share1 ^ mask([val for _, val in orec.declared_y]):
            return _reject(f"round {idx}: ciphertext c1 inconsistent with the declared opening")
        if rrec.sets.pick(orec.share0, orec.share1) != rrec.received_share:
            return _reject(f"round {idx}: declared share differs from the transferred share")
        decoded_bits.append(orec.share0 ^ orec.share1)
    if len(set(decoded_bits)) != 1:
        return _reject("rounds decode to different bits")
    return VerifyResult(accepted=True, recovered_bit=decoded_bits[0], first_inconsistency=None)


# ---------------------------------------------------------------------------
# direct commitment through a correlation-immune function ("P5")


@dataclass(frozen=True)
class BooleanFunctionSpec:
    """A public boolean function of a fixed number of bits."""

    arity: int
    func: Callable[[tuple[int, ...]], int]
    name: str

    def __call__(self, bits: tuple[int, ...]) -> int:
        return int(self.func(bits))


def parity_function(n: int) -> BooleanFunctionSpec:
    """XOR of all n inputs: balanced and correlation immune of order n - 1."""
    if n < 1:
        raise ValueError("arity must be at least 1")
    return BooleanFunctionSpec(arity=n, func=mask, name="parity")


_P5_MAX_DRAWS = 100000


def p5_sample_strings(
    b: int, m: int, function: BooleanFunctionSpec, rng: RngStream
) -> tuple[tuple[int, ...], ...]:
    """m uniform samples from the preimage of b under the public function."""
    if b not in (0, 1):
        raise ValueError("the committed value must be a bit")
    strings = []
    draws = 0
    while len(strings) < m:
        candidate = tuple(rng.bits(function.arity).tolist())
        draws += 1
        if function(candidate) == b:
            strings.append(candidate)
        if draws > _P5_MAX_DRAWS:
            raise ValueError("no preimage found; the function looks constant on this value")
    return tuple(strings)


@dataclass(frozen=True)
class P5SenderState:
    protocol_id: str
    bit: int
    function: BooleanFunctionSpec
    strings: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class P5ReceiverState:
    """The grid measured at commit: a read-only (m, n) int8 array of decoded
    bits, -1 where a qubit never arrived or its outcome was inconclusive."""

    protocol_id: str
    function: BooleanFunctionSpec
    decoded: np.ndarray


@dataclass(frozen=True)
class P5OpenMessage:
    protocol_id: str
    bit: int
    strings: tuple[tuple[int, ...], ...]


def p5_measure_record(
    bits: np.ndarray,
    x: np.ndarray,
    u: np.ndarray,
    present: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Measure every qubit of an (m, n) grid of encoded bits like the P4
    receiver, after unblinding: the read-only (m, n) int8 grid of decoded bits.

    Where the optional (m, n) mask `present` is False the qubit never arrived
    and its cell is -1; with no mask every qubit arrived. The arriving
    qubits, in row-major order, take their basis bits from `x` and their
    uniforms from `u`, the draws of `honest_draws`.
    """
    bits = np.asarray(bits)
    if present is None:
        present = np.ones(bits.shape, dtype=bool)
    decoded = np.full(bits.shape, -1, dtype=np.int8)
    decoded[present] = honest_channel(bits[present], x, u, ENCODE_ANGLE)
    decoded.flags.writeable = False
    return decoded


def p5_commit(
    b: int,
    m: int,
    n: int,
    function: BooleanFunctionSpec,
    rng: RngStream,
    measure_at_commit: bool = True,
) -> CommitTranscript:
    """Commit b by encoding m preimage strings on the receiver's blinded grid;
    the receiver measures the returned grid at once."""
    # measuring at open gives the same statistics; bench/ still passes the keyword
    if not measure_at_commit:
        raise ValueError("the P5 receiver always measures at commit")
    if m < 1:
        raise ValueError("need at least one string")
    if function.arity != n:
        raise ValueError("function arity must equal the string length n")
    strings = p5_sample_strings(b, m, function, rng)
    # the receiver's secret angles; unblinding cancels them (p4_unblind_and_measure)
    blinding_angles(rng, (m, n))
    decoded = p5_measure_record(np.array(strings), *honest_draws(rng, m * n))
    return CommitTranscript(
        sender=P5SenderState(protocol_id=PROTOCOL_P5, bit=b, function=function, strings=strings),
        receiver=P5ReceiverState(protocol_id=PROTOCOL_P5, function=function, decoded=decoded),
    )


def p5_open(sender_state: P5SenderState) -> P5OpenMessage:
    return P5OpenMessage(
        protocol_id=PROTOCOL_P5, bit=sender_state.bit, strings=sender_state.strings
    )


def p5_verify(receiver_state: P5ReceiverState, open_msg: P5OpenMessage) -> VerifyResult:
    """Check declared strings against function value and conclusive outcomes.

    A -1 cell of the receiver's decoded grid (a qubit that never arrived, or
    an inconclusive outcome) checks nothing. The first contradicted qubit in
    row-major order is reported.
    """
    decoded, function = receiver_state.decoded, receiver_state.function
    if open_msg.protocol_id != PROTOCOL_P5:
        return _reject("protocol identifier mismatch")
    if open_msg.bit not in (0, 1):
        return _reject("declared value is not a bit")
    if len(open_msg.strings) != len(decoded):
        return _reject("string count mismatch")
    for i, string in enumerate(open_msg.strings, start=1):
        if len(string) != function.arity:
            return _reject(f"string {i}: wrong length")
        if not set(string) <= {0, 1}:
            return _reject(f"string {i}: holds a value other than 0 and 1")
        if function(string) != open_msg.bit:
            return _reject(f"string {i}: function value does not match the declared bit")
    # a decoded bit contradicts a declared one iff it is the other bit; -1 is neither
    contradicted = np.flatnonzero(decoded == 1 - np.array(open_msg.strings, dtype=np.int8))
    if contradicted.size:
        i, j = divmod(int(contradicted[0]), decoded.shape[1])
        return _reject(f"qubit ({i + 1},{j + 1}): conclusive outcome contradicts the declared bit")
    return VerifyResult(accepted=True, recovered_bit=open_msg.bit, first_inconsistency=None)


# ---------------------------------------------------------------------------
# JSON views (classical data only), one codec per protocol family


def _bc_to_dict(state, rounds: list, **fields) -> dict:
    """A share-split sender or receiver file: the header both sides share,
    the side's own `fields` and its l written `rounds`."""
    header = dict(
        protocol_id=state.protocol_id, l=len(rounds), n=state.n, k=state.k, theta=state.theta
    )
    return {**header, **fields, "rounds": rounds}


def _bc_sender_to_dict(state: CommitSenderState) -> dict:
    rounds = [
        {
            "share0": rnd.share0,
            "share1": rnd.share1,
            "r": _cells_text(rnd.bits),
            "sets": _sets_text(state.n, rnd.x_set, rnd.y_set),
            "c0": rnd.c0,
            "c1": rnd.c1,
        }
        for rnd in state.rounds
    ]
    return _bc_to_dict(state, rounds, bit=state.bit)


# an int8 row in JSON: one cell per position, the sent bit ("r") or the
# decoded bit ("conclusive"), and "-" where no bit was learned (-1, the byte 0xff)
_DECODED_CELLS = "01-"
_TO_CELLS = bytes.maketrans(b"\x00\x01\xff", _DECODED_CELLS.encode("ascii"))
_FROM_CELLS = bytes.maketrans(_DECODED_CELLS.encode("ascii"), b"\x00\x01\xff")


def _cells_text(row: np.ndarray) -> str:
    """An int8 row of 0, 1 and -1 as its string of cells."""
    return row.tobytes().translate(_TO_CELLS).decode("ascii")


# a round's announcement in JSON ("sets"): one cell per position, "x" in
# the first announced set X, "y" in the second Y and "-" elsewhere
_SET_CELLS = "xy-"


def _sets_text(n: int, x_set: tuple[int, ...], y_set: tuple[int, ...]) -> str:
    """The announced sets (X, Y) as their string of n cells."""
    cells = ["-"] * n
    for p in x_set:
        cells[p - 1] = "x"
    for p in y_set:
        cells[p - 1] = "y"
    return "".join(cells)


def _bc_receiver_to_dict(state: CommitReceiverState) -> dict:
    rounds = [
        {
            "m": rnd.sets.m,
            "sets": _sets_text(state.n, rnd.sets.x_set, rnd.sets.y_set),
            "conclusive": _cells_text(rnd.decoded),
            "c0": rnd.c0,
            "c1": rnd.c1,
            "received_share": rnd.received_share,
        }
        for rnd in state.rounds
    ]
    return _bc_to_dict(state, rounds)


def _bc_open_to_dict(msg: OpenMessage) -> dict:
    return {
        "protocol_id": msg.protocol_id,
        "rounds": [
            {
                "share0": rnd.share0,
                "share1": rnd.share1,
                "declared_x": [{"pos": pos, "val": val} for pos, val in rnd.declared_x],
                "declared_y": [{"pos": pos, "val": val} for pos, val in rnd.declared_y],
            }
            for rnd in msg.rounds
        ],
    }


def _p5_sender_to_dict(state: P5SenderState) -> dict:
    return {
        "protocol_id": state.protocol_id,
        "bit": state.bit,
        "m": len(state.strings),
        "n": state.function.arity,
        "function": state.function.name,
        "strings": [list(s) for s in state.strings],
    }


def _p5_receiver_to_dict(state: P5ReceiverState) -> dict:
    m, n = state.decoded.shape
    return {
        "protocol_id": state.protocol_id,
        "m": m,
        "n": n,
        "function": state.function.name,
        "conclusive": [_cells_text(row) for row in state.decoded],
    }


def _p5_open_to_dict(msg: P5OpenMessage) -> dict:
    return {
        "protocol_id": msg.protocol_id,
        "bit": msg.bit,
        "strings": [list(s) for s in msg.strings],
    }


_FUNCTION_REGISTRY = {"parity": parity_function}


def _function(arity: int, x) -> BooleanFunctionSpec:
    """The registered function named x, of the given arity."""
    if _str(x) not in _FUNCTION_REGISTRY:
        raise ValueError(f"unknown boolean function {x!r}")
    return _FUNCTION_REGISTRY[x](arity)


def _field(d, key: str, read, round_index: Optional[int] = None):
    """read(d[key]) for a transcript read from untrusted JSON; d is round
    `round_index` of the transcript when that is given.

    A missing field, or one that `read` refuses with a TypeError or
    ValueError, raises a ValueError naming the field (`rounds[i].key`).
    The name is built only then.
    """
    try:
        value = d[key]
    except KeyError:
        raise ValueError(f"missing field {_field_name(key, round_index)!r}") from None
    except (TypeError, IndexError):
        raise ValueError(
            f"expected a JSON object with field {_field_name(key, round_index)!r}, "
            f"got {type(d).__name__}"
        ) from None
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {_field_name(key, round_index)!r} is malformed: {exc}") from None


def _field_name(key: str, round_index: Optional[int]) -> str:
    return key if round_index is None else f"rounds[{round_index}].{key}"


def _int(x) -> int:
    if type(x) is not int:  # a JSON bool is no integer here
        raise TypeError(f"expected an integer, got {type(x).__name__}")
    return x


def _count(x) -> int:
    """A round, string or position count. Zero rounds or an empty announced
    set would commit nothing, so a count must be at least 1."""
    x = _int(x)
    if x < 1:
        raise ValueError(f"expected a count of at least 1, got {x}")
    return x


def _float(x) -> float:
    if type(x) not in (int, float):
        raise TypeError(f"expected a number, got {type(x).__name__}")
    try:
        return float(x)
    except OverflowError:
        raise ValueError("expected a number, got an integer too large for a float") from None


def _str(x) -> str:
    if not isinstance(x, str):
        raise TypeError(f"expected a string, got {type(x).__name__}")
    return x


def _list(x) -> list:
    if not isinstance(x, list):
        raise TypeError(f"expected a list, got {type(x).__name__}")
    return x


def _bit(x) -> int:
    if type(x) is not int:  # a JSON bool is no bit here
        raise TypeError(f"expected a bit, got {type(x).__name__}")
    if x not in (0, 1):
        raise ValueError(f"expected a bit, got {x}")
    return x


def _ints(x) -> tuple[int, ...]:
    values = tuple(_list(x))
    for v in values:
        if type(v) is not int:
            raise TypeError(f"expected a list of integers, got a {type(v).__name__}")
    return values


def _cell_string(n: int, alphabet: str, x) -> str:
    """x, which must be a string of n cells, each one of the characters of
    `alphabet`."""
    if not isinstance(x, str):
        raise TypeError(f"expected a string of n = {n} cells, got {type(x).__name__}")
    if len(x) != n:
        raise ValueError(f"expected a string of n = {n} cells, got {len(x)}")
    # strip leaves the string from its first cell outside the alphabet on
    rest = x.strip(alphabet)
    if rest:
        raise ValueError(f"cell {rest[0]!r} is not one of {alphabet!r}")
    return x


def _cells(n: int, alphabet: str, x) -> np.ndarray:
    """A string of n cells from `alphabet` (a part of "01-"), read back into
    the read-only int8 row `_cells_text` writes it from."""
    text = _cell_string(n, alphabet, x)
    return np.frombuffer(text.encode("ascii").translate(_FROM_CELLS), dtype=np.int8)


def _sets(n: int, k: int, x) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The announced sets (X, Y), read back from the string of n cells
    `_sets_text` writes them as; each must hold k positions. The cells make
    the sets disjoint, sorted and within 1..n."""
    x_set: list[int] = []
    y_set: list[int] = []
    for p, cell in enumerate(_cell_string(n, _SET_CELLS, x), start=1):
        if cell == "x":
            x_set.append(p)
        elif cell == "y":
            y_set.append(p)
    if len(x_set) != k or len(y_set) != k:
        raise ValueError(
            f"expected k = {k} cells each of 'x' and 'y', got {len(x_set)} and {len(y_set)}"
        )
    return tuple(x_set), tuple(y_set)


def _int_rows(x) -> tuple[tuple[int, ...], ...]:
    return tuple(_ints(row) for row in _list(x))


def _bit_rows(x) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(_bit(v) for v in _list(row)) for row in _list(x))


def _pos_vals(x) -> tuple[tuple[int, int], ...]:
    pairs = []
    for c in _list(x):
        try:
            pos, val = c["pos"], c["val"]
        except (KeyError, TypeError):
            raise ValueError('expected a list of {"pos": ..., "val": ...} objects') from None
        if type(pos) is not int or type(val) is not int:
            raise TypeError("positions and values must be integers")
        pairs.append((pos, val))
    return tuple(pairs)


def _conclusive(n: int, i_set: tuple[int, ...], x) -> np.ndarray:
    """A round's decoded row, read from its n cells; every announced I
    position (sorted, in 1..n) must be conclusive."""
    decoded = _cells(n, _DECODED_CELLS, x)
    for p in i_set:
        if decoded[p - 1] < 0:
            raise ValueError(f"announced I position {p} is not conclusive")
    return decoded


def _rounds(d: dict, l: Optional[int] = None) -> list:
    """d["rounds"], which must hold l rounds if l is given."""
    rounds = _field(d, "rounds", _list)
    if l is not None and len(rounds) != l:
        raise ValueError(f"field 'rounds' holds {len(rounds)} rounds, but field 'l' is {l}")
    return rounds


def _angle(protocol_id: str, x) -> float:
    return check_channel_angle(protocol_id, _float(x))


def _bc_from_dict(d: dict, state_type, read_round, **fields):
    """A share-split sender or receiver file as `state_type`: the header
    both sides share, each round as read_round(rnd, at, n, sets) reads it,
    and the side's own `fields`, each read by the reader named for it."""
    l, n, k = _field(d, "l", _count), _field(d, "n", _count), _field(d, "k", _count)
    sets = functools.partial(_sets, n, k)
    rounds = tuple(read_round(rnd, at, n, sets) for at, rnd in enumerate(_rounds(d, l)))
    own = {key: _field(d, key, read) for key, read in fields.items()}
    theta = _field(d, "theta", functools.partial(_angle, d["protocol_id"]))
    return state_type(protocol_id=d["protocol_id"], n=n, k=k, theta=theta, rounds=rounds, **own)


def _bc_sender_round(rnd: dict, at: int, n: int, sets) -> SenderCommitRound:
    """Round `at` of a sender file, its sets read by `sets`."""
    share0, share1 = _field(rnd, "share0", _bit, at), _field(rnd, "share1", _bit, at)
    bits = _field(rnd, "r", functools.partial(_cells, n, "01"), at)
    x_set, y_set = _field(rnd, "sets", sets, at)
    c0, c1 = _field(rnd, "c0", _bit, at), _field(rnd, "c1", _bit, at)
    return SenderCommitRound(share0, share1, bits, x_set, y_set, c0, c1)


def _bc_sender_from_dict(d: dict) -> CommitSenderState:
    return _bc_from_dict(d, CommitSenderState, _bc_sender_round, bit=_bit)


def _bc_receiver_round(rnd: dict, at: int, n: int, sets) -> ReceiverCommitRound:
    """Round `at` of a receiver file, its sets read by `sets`; every I
    position must be conclusive."""
    x_set, y_set = _field(rnd, "sets", sets, at)
    announced = IndexSets.from_slots(x_set, y_set, _field(rnd, "m", _bit, at))
    return ReceiverCommitRound(
        sets=announced,
        decoded=_field(rnd, "conclusive", functools.partial(_conclusive, n, announced.i_set), at),
        c0=_field(rnd, "c0", _bit, at),
        c1=_field(rnd, "c1", _bit, at),
        received_share=_field(rnd, "received_share", _bit, at),
    )


def _bc_receiver_from_dict(d: dict) -> CommitReceiverState:
    return _bc_from_dict(d, CommitReceiverState, _bc_receiver_round)


def _bc_open_from_dict(d: dict) -> OpenMessage:
    rounds = tuple(
        OpenRound(
            share0=_field(rnd, "share0", _int, at),
            share1=_field(rnd, "share1", _int, at),
            declared_x=_field(rnd, "declared_x", _pos_vals, at),
            declared_y=_field(rnd, "declared_y", _pos_vals, at),
        )
        for at, rnd in enumerate(_rounds(d))
    )
    return OpenMessage(protocol_id=d["protocol_id"], rounds=rounds)


def _p5_sender_from_dict(d: dict) -> P5SenderState:
    m, n = _field(d, "m", _count), _field(d, "n", _count)
    strings = _field(d, "strings", _bit_rows)
    if len(strings) != m:
        raise ValueError(f"field 'strings' holds {len(strings)} strings, but field 'm' is {m}")
    for i, string in enumerate(strings):
        if len(string) != n:
            raise ValueError(f"field 'strings[{i}]' has length {len(string)}, but field 'n' is {n}")
    return P5SenderState(
        protocol_id=PROTOCOL_P5,
        bit=_field(d, "bit", _bit),
        function=_field(d, "function", functools.partial(_function, n)),
        strings=strings,
    )


def _p5_receiver_from_dict(d: dict) -> P5ReceiverState:
    m, n = _field(d, "m", _count), _field(d, "n", _count)
    rows = _field(d, "conclusive", _list)
    if len(rows) != m:
        raise ValueError(f"field 'conclusive' holds {len(rows)} strings, but field 'm' is {m}")
    cells = []
    for i, row in enumerate(rows):
        try:
            cells.append(_cells(n, _DECODED_CELLS, row))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"field 'conclusive[{i}]' is malformed: {exc}") from None
    decoded = np.stack(cells)
    decoded.flags.writeable = False
    return P5ReceiverState(
        protocol_id=PROTOCOL_P5,
        function=_field(d, "function", functools.partial(_function, n)),
        decoded=decoded,
    )


def _p5_open_from_dict(d: dict) -> P5OpenMessage:
    return P5OpenMessage(
        protocol_id=PROTOCOL_P5,
        bit=_field(d, "bit", _int),
        strings=_field(d, "strings", _int_rows),
    )


# ---------------------------------------------------------------------------
# the protocol families: which codecs, opener and verifier a protocol id uses


class Codec(NamedTuple):
    to_dict: Callable[[Any], dict]
    from_dict: Callable[[dict], Any]


class ProtocolFamily(NamedTuple):
    """What a protocol id selects: its transcript codecs, opener and verifier."""

    sender: Codec
    receiver: Codec
    opening: Codec
    open: Callable[[Any], Any]
    verify: Callable[[Any, Any], VerifyResult]


# the three commitments built on the transfer split the bit into shares
_SHARE_SPLIT = ProtocolFamily(
    sender=Codec(_bc_sender_to_dict, _bc_sender_from_dict),
    receiver=Codec(_bc_receiver_to_dict, _bc_receiver_from_dict),
    opening=Codec(_bc_open_to_dict, _bc_open_from_dict),
    open=bc_open,
    verify=bc_verify,
)

# the grid commitment encodes preimage strings directly
_DIRECT = ProtocolFamily(
    sender=Codec(_p5_sender_to_dict, _p5_sender_from_dict),
    receiver=Codec(_p5_receiver_to_dict, _p5_receiver_from_dict),
    opening=Codec(_p5_open_to_dict, _p5_open_from_dict),
    open=p5_open,
    verify=p5_verify,
)

PROTOCOL_FAMILIES = {**dict.fromkeys(OT_VARIANTS, _SHARE_SPLIT), PROTOCOL_P5: _DIRECT}


def protocol_family(protocol_id: str) -> ProtocolFamily:
    """The table entry of a protocol id; a ValueError for any other value."""
    if protocol_id not in PROTOCOL_FAMILIES:
        known = ", ".join(PROTOCOL_FAMILIES)
        raise ValueError(f"unknown protocol {protocol_id!r}, not one of {known}")
    return PROTOCOL_FAMILIES[protocol_id]


def sender_state_to_dict(state) -> dict:
    return protocol_family(state.protocol_id).sender.to_dict(state)


def receiver_state_to_dict(state) -> dict:
    return protocol_family(state.protocol_id).receiver.to_dict(state)


def open_message_to_dict(msg) -> dict:
    return protocol_family(msg.protocol_id).opening.to_dict(msg)


def sender_state_from_dict(d: dict):
    return _field(d, "protocol_id", protocol_family).sender.from_dict(d)


def receiver_state_from_dict(d: dict):
    return _field(d, "protocol_id", protocol_family).receiver.from_dict(d)


def open_message_from_dict(d: dict):
    return _field(d, "protocol_id", protocol_family).opening.from_dict(d)


def verify_from_states(receiver_state, open_msg) -> VerifyResult:
    """Verify with the verifier of the receiver's protocol family."""
    return protocol_family(receiver_state.protocol_id).verify(receiver_state, open_msg)
