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
from typing import Callable, Optional

import numpy as np

from .ot12 import DEFAULT_ALPHA, Ot12Transcript, k_of, run_masked_transfer
from .qsim import (
    ProjectiveBasis,
    RngStream,
    StateVector,
    apply_on_qubit,
    batch_probabilities,
    bell_state,
    rotate_rows,
    rotation_plane,
)
from .rot import (
    BASIS_0,
    HONEST,
    PERP_OUTCOME,
    ReceiverRecord,
    RotConfig,
    SenderRecord,
    basis_tags,
    bob_measure_honest,
    honest_outcomes,
    measurement_bases,
    run_rot,
)

# Not used below (the channels sample through the batched kernel), but
# bench/tracing.py wraps the per-state engine under this name here.
from .qsim import measure_projective  # noqa: F401

PROTOCOL_P2BC = "P2-BC"
PROTOCOL_P3 = "P3"
PROTOCOL_P4 = "P4"
PROTOCOL_P5 = "P5"

OT_VARIANTS = (PROTOCOL_P2BC, PROTOCOL_P3, PROTOCOL_P4)

_ENCODE_ANGLE = float(np.pi / 4)

# ---------------------------------------------------------------------------
# entangled-pair channel ("P3")

_P3_CONCLUSIVE_1 = "psi+"
_P3_CONCLUSIVE_0 = "phi-minus-psi+"


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
        labels=("phi-plus-psi+", _P3_CONCLUSIVE_0, "phi+plus-psi-", "phi+minus-psi-"),
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
    return base, apply_on_qubit(base, 0, rotation_plane(_ENCODE_ANGLE))


@functools.lru_cache(maxsize=1)
def _p3_pair_amps() -> np.ndarray:
    amps = np.stack([s.amps for s in p3_pair_states()])
    amps.flags.writeable = False
    return amps


def p3_prepare_and_encode(r_bits: np.ndarray) -> np.ndarray:
    """The returned pairs, one (4,) amplitude row per bit of r_bits."""
    return _p3_pair_amps()[np.asarray(r_bits, dtype=np.intp)]


@functools.lru_cache(maxsize=1)
def _p3_decode() -> np.ndarray:
    """Decoded bit per (basis, outcome index), -1 where inconclusive."""
    decode = np.full((2, 4), -1, dtype=np.int8)
    basis0, basis1 = p3_bases()
    decode[0, basis0.labels.index(_P3_CONCLUSIVE_1)] = 1
    decode[1, basis1.labels.index(_P3_CONCLUSIVE_0)] = 0
    decode.flags.writeable = False
    return decode


def p3_measure(amps: np.ndarray, rng: RngStream) -> ReceiverRecord:
    """Measure each returned pair in a uniformly chosen pair basis."""
    x = rng.bits(len(amps))
    outcomes = rng.choice_indices(batch_probabilities(amps, p3_bases(), choice=x))
    return ReceiverRecord.from_decoded(HONEST, basis_tags(x), _p3_decode()[x, outcomes])


# ---------------------------------------------------------------------------
# blinded single-qubit channel ("P4", also the qubit layer of "P5")


@dataclass(frozen=True)
class BlindedQubitRecord:
    """The receiver's secret blinding angles, one per transit qubit."""

    alphas: np.ndarray

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=np.float64).copy()
        if alphas.ndim != 1 or alphas.size < 1:
            raise ValueError("alphas must be a nonempty vector")
        if np.any(alphas < 0.0) or np.any(alphas >= 2 * np.pi):
            raise ValueError("alphas must lie in [0, 2*pi)")
        alphas.flags.writeable = False
        object.__setattr__(self, "alphas", alphas)


def blinded_amps(alphas, bits=0) -> np.ndarray:
    """|0> rotated by each blinding angle, then by the encoding angle iff its
    bit is 1; amplitudes on a trailing axis of length 2."""
    angle = np.asarray(alphas, dtype=np.float64) + _ENCODE_ANGLE * np.asarray(bits)
    return np.stack((np.cos(angle), np.sin(angle)), axis=-1)


def p4_prepare_blinded(n: int, rng: RngStream) -> tuple[BlindedQubitRecord, np.ndarray]:
    """Receiver-side preparation: |0> rotated by a fresh uniform angle each."""
    alphas = rng.gen.uniform(0.0, 2 * np.pi, size=n)
    return BlindedQubitRecord(alphas=alphas), blinded_amps(alphas)


def p4_encode(amps: np.ndarray, r_bits: np.ndarray) -> np.ndarray:
    """Committer action: rotate by pi/4 exactly where her bit is 1."""
    r_bits = np.asarray(r_bits)
    if r_bits.shape != (len(amps),):
        raise ValueError("need one bit per qubit")
    return rotate_rows(amps, _ENCODE_ANGLE * r_bits)


def p4_unblind_and_measure(
    amps: np.ndarray, record: BlindedQubitRecord, rng: RngStream
) -> ReceiverRecord:
    """Undo the blinding, then measure exactly like the plain honest receiver.

    After unblinding, an encoded 0 is |0> and an encoded 1 is |+>, so the
    statistics carry no trace of the blinding angles.
    """
    if len(amps) != record.alphas.size:
        raise ValueError("state count does not match the blinding record")
    unblinded = rotate_rows(amps, -record.alphas)
    config = RotConfig(n=len(amps), theta=_ENCODE_ANGLE)
    return bob_measure_honest(unblinded, config, rng)


# ---------------------------------------------------------------------------
# share-splitting commitment over the transfer layer


@dataclass(frozen=True)
class SenderCommitRound:
    share0: int
    share1: int
    bits: np.ndarray
    x_set: tuple[int, ...]
    y_set: tuple[int, ...]
    c0: int
    c1: int

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.int8).copy()
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)


@dataclass(frozen=True)
class ReceiverCommitRound:
    m: int
    i_set: tuple[int, ...]
    j_set: tuple[int, ...]
    conclusive: tuple[tuple[int, int], ...]
    c0: int
    c1: int
    received_share: int

    @property
    def x_set(self) -> tuple[int, ...]:
        return self.i_set if self.m == 0 else self.j_set

    @property
    def y_set(self) -> tuple[int, ...]:
        return self.j_set if self.m == 0 else self.i_set


@dataclass(frozen=True)
class CommitSenderState:
    protocol_id: str
    bit: int
    l: int
    n: int
    k: int
    theta: float
    rounds: tuple[SenderCommitRound, ...]


@dataclass(frozen=True)
class CommitReceiverState:
    protocol_id: str
    l: int
    n: int
    k: int
    theta: float
    rounds: tuple[ReceiverCommitRound, ...]


@dataclass(frozen=True)
class CommitTranscript:
    """Both ends of a finished commit; only the sender side knows the bit."""

    sender: CommitSenderState
    receiver: CommitReceiverState


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
    variant: str, n: int, theta: float, rng: RngStream
) -> tuple[SenderRecord, ReceiverRecord]:
    if variant == PROTOCOL_P2BC:
        return run_rot(RotConfig(n=n, theta=theta), HONEST, rng)
    if variant == PROTOCOL_P3:
        bits = rng.bits(n)
        return SenderRecord(bits=bits), p3_measure(p3_prepare_and_encode(bits), rng)
    if variant == PROTOCOL_P4:
        record, blinded = p4_prepare_blinded(n, rng)
        bits = rng.bits(n)
        encoded = p4_encode(blinded, bits)
        return SenderRecord(bits=bits), p4_unblind_and_measure(encoded, record, rng)
    raise ValueError(f"unknown commitment variant {variant!r}")


def bc_commit_over_ot(
    b: int,
    l: int,
    n: int,
    variant: str,
    rng: RngStream,
    theta: float = _ENCODE_ANGLE,
    alpha: Fraction = DEFAULT_ALPHA,
    max_attempts_per_round: int = 1000,
) -> CommitTranscript:
    """Commit bit b over l transfer rounds; aborted rounds are redrawn fresh."""
    if b not in (0, 1):
        raise ValueError("the committed value must be a bit")
    if l < 1:
        raise ValueError("need at least one round")
    if variant not in OT_VARIANTS:
        raise ValueError(f"variant must be one of {OT_VARIANTS}")
    if variant != PROTOCOL_P2BC and abs(theta - _ENCODE_ANGLE) > 1e-12:
        raise ValueError("the pair and blinded channels fix theta at pi/4")
    k = k_of(n, alpha)
    if k < 1:
        raise ValueError(f"n={n} gives k={k} announced positions; hiding needs k >= 1")
    sender_rounds = []
    receiver_rounds = []
    for _ in range(l):
        transcript: Optional[Ot12Transcript] = None
        for _attempt in range(max_attempts_per_round):
            share0 = rng.bit()
            share1 = share0 ^ b
            sender_rec, receiver_rec = _ot_channel(variant, n, theta, rng)
            t = run_masked_transfer(sender_rec, receiver_rec, n, k, share0, share1, rng, theta)
            if not t.aborted:
                transcript = t
                break
        if transcript is None:
            raise RuntimeError("transfer round kept aborting; n is too small for k")
        sets = transcript.sets
        sender_rounds.append(
            SenderCommitRound(
                share0=share0,
                share1=share1,
                bits=transcript.sender.bits,
                x_set=sets.x_set,
                y_set=sets.y_set,
                c0=transcript.c0,
                c1=transcript.c1,
            )
        )
        receiver_rounds.append(
            ReceiverCommitRound(
                m=sets.m,
                i_set=sets.i_set,
                j_set=sets.j_set,
                conclusive=transcript.receiver.conclusive,
                c0=transcript.c0,
                c1=transcript.c1,
                received_share=transcript.b_received,
            )
        )
    return CommitTranscript(
        sender=CommitSenderState(
            protocol_id=variant, bit=b, l=l, n=n, k=k, theta=theta, rounds=tuple(sender_rounds)
        ),
        receiver=CommitReceiverState(
            protocol_id=variant, l=l, n=n, k=k, theta=theta, rounds=tuple(receiver_rounds)
        ),
    )


def bc_open(sender_state: CommitSenderState) -> OpenMessage:
    """Declare every round's shares and the sent bits over both announced sets."""
    rounds = []
    for rnd in sender_state.rounds:
        rounds.append(
            OpenRound(
                share0=rnd.share0,
                share1=rnd.share1,
                declared_x=tuple((p, int(rnd.bits[p - 1])) for p in rnd.x_set),
                declared_y=tuple((p, int(rnd.bits[p - 1])) for p in rnd.y_set),
            )
        )
    return OpenMessage(protocol_id=sender_state.protocol_id, rounds=tuple(rounds))


def bc_verify(receiver_state: CommitReceiverState, open_msg: OpenMessage) -> VerifyResult:
    """Accept iff every declaration is consistent with what the receiver saw.

    Checks per round: the declared positions are the announced sets, no
    declared bit contradicts a conclusive measurement, both ciphertexts
    reproduce under the declared shares and masks, and the declared share in
    the receiver's slot matches the share actually transferred. All rounds
    must decode to one and the same bit.
    """
    if open_msg.protocol_id != receiver_state.protocol_id:
        return _reject("protocol identifier mismatch")
    if len(open_msg.rounds) != len(receiver_state.rounds):
        return _reject("round count mismatch")
    decoded_bits = []
    for idx, (orec, rrec) in enumerate(zip(open_msg.rounds, receiver_state.rounds), start=1):
        if orec.share0 not in (0, 1) or orec.share1 not in (0, 1):
            return _reject(f"round {idx}: shares are not bits")
        if tuple(p for p, _ in orec.declared_x) != rrec.x_set:
            return _reject(f"round {idx}: declared X positions differ from the announcement")
        if tuple(p for p, _ in orec.declared_y) != rrec.y_set:
            return _reject(f"round {idx}: declared Y positions differ from the announcement")
        cmap = dict(rrec.conclusive)
        for pos, val in orec.declared_x + orec.declared_y:
            if val not in (0, 1):
                return _reject(f"round {idx}: declared value at position {pos} is not a bit")
            if pos in cmap and cmap[pos] != val:
                return _reject(
                    f"round {idx}: declared bit at position {pos} contradicts a conclusive outcome"
                )
        s_x = 0
        for _, val in orec.declared_x:
            s_x ^= val
        s_y = 0
        for _, val in orec.declared_y:
            s_y ^= val
        if rrec.c0 != orec.share0 ^ s_x:
            return _reject(f"round {idx}: ciphertext c0 inconsistent with the declared opening")
        if rrec.c1 != orec.share1 ^ s_y:
            return _reject(f"round {idx}: ciphertext c1 inconsistent with the declared opening")
        declared_received = orec.share0 if rrec.m == 0 else orec.share1
        if declared_received != rrec.received_share:
            return _reject(f"round {idx}: declared share differs from the transferred share")
        decoded_bits.append(orec.share0 ^ orec.share1)
    if len(set(decoded_bits)) != 1:
        return _reject("rounds decode to different bits")
    return VerifyResult(accepted=True, recovered_bit=decoded_bits[0], first_inconsistency=None)


# ---------------------------------------------------------------------------
# direct commitment through a correlation-immune function ("P5")


@dataclass(frozen=True)
class BooleanFunctionSpec:
    """A public boolean function together with its declared immunity order."""

    arity: int
    func: Callable[[tuple[int, ...]], int]
    correlation_immunity_order: int
    name: str

    def __call__(self, bits) -> int:
        return int(self.func(tuple(int(b) for b in bits)))


def parity_function(n: int) -> BooleanFunctionSpec:
    """XOR of all n inputs: balanced and correlation immune of order n - 1."""
    if n < 1:
        raise ValueError("arity must be at least 1")

    def xor_all(bits: tuple[int, ...]) -> int:
        out = 0
        for b in bits:
            out ^= b
        return out

    return BooleanFunctionSpec(
        arity=n, func=xor_all, correlation_immunity_order=n - 1, name="parity"
    )


def correlation_immunity_order(func: Callable, arity: int) -> int:
    """Brute-force immunity order via the Walsh transform (small arity only).

    Returns the largest t such that every nonzero mask of weight at most t
    has a vanishing Walsh coefficient; a balanced-output check is not part of
    this notion, so constant functions come out maximally immune.
    """
    if arity > 12:
        raise ValueError("exhaustive Walsh check is limited to arity <= 12")
    size = 2**arity
    values = np.empty(size, dtype=np.int64)
    for x in range(size):
        bits = tuple((x >> (arity - 1 - i)) & 1 for i in range(arity))
        values[x] = int(func(bits))
    signs = 1 - 2 * values
    best = arity
    for u in range(1, size):
        dots = np.array([bin(u & x).count("1") & 1 for x in range(size)])
        coeff = int(np.sum(signs * (1 - 2 * dots)))
        if coeff != 0:
            best = min(best, bin(u).count("1") - 1)
    return best


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
        candidate = tuple(int(x) for x in rng.bits(function.arity))
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
    m: int
    n: int
    function: BooleanFunctionSpec
    strings: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class P5ReceiverState:
    """Blinding grid plus either held qubits or commit-time outcome records.

    records[i][j] is a (basis_tag, outcome_label) pair once qubit (i, j) has
    been measured, or None for a qubit that never clicked; states holds the
    live qubits as an (m, n, 2) amplitude array while measurement is
    deferred to open time.
    """

    protocol_id: str
    m: int
    n: int
    function: BooleanFunctionSpec
    alphas: np.ndarray
    states: Optional[np.ndarray]
    records: Optional[list[list[Optional[tuple[str, str]]]]]
    perfect_detectors: bool = False


@dataclass(frozen=True)
class P5CommitTranscript:
    sender: P5SenderState
    receiver: P5ReceiverState


@dataclass(frozen=True)
class P5OpenMessage:
    protocol_id: str
    bit: int
    strings: tuple[tuple[int, ...], ...]


def p5_measure_record(
    amps: np.ndarray, alphas: np.ndarray, rng: RngStream, present: Optional[np.ndarray] = None
) -> list[list[Optional[tuple[str, str]]]]:
    """Unblind every qubit of an (m, n) grid and measure each in a uniformly
    chosen basis.

    `amps` is (m, n, 2), `alphas` (m, n). Where the optional (m, n) mask
    `present` is False the qubit never arrived and its record is None.
    """
    alphas = np.asarray(alphas)
    if amps.shape != alphas.shape + (2,):
        raise ValueError("need one blinding angle per qubit of the grid")
    if present is None:
        present = np.ones(alphas.shape, dtype=bool)
    unblinded = rotate_rows(amps[present], -alphas[present])
    x, outcomes = honest_outcomes(unblinded, _ENCODE_ANGLE, rng)
    labels = measurement_bases(_ENCODE_ANGLE)[0].labels
    measured = iter(zip(basis_tags(x), [labels[o] for o in outcomes.tolist()]))
    return [[next(measured) if arrived else None for arrived in row] for row in present.tolist()]


def p5_record_value(record: tuple[str, str]) -> Optional[int]:
    """Decoded bit of a conclusive outcome record, None if inconclusive."""
    basis_tag, label = record
    if label != PERP_OUTCOME:
        return None
    return 1 if basis_tag == BASIS_0 else 0


def p5_commit(
    b: int,
    m: int,
    n: int,
    function: BooleanFunctionSpec,
    rng: RngStream,
    measure_at_commit: bool = False,
) -> P5CommitTranscript:
    """Commit b by encoding m preimage strings on the receiver's blinded grid."""
    if m < 1:
        raise ValueError("need at least one string")
    if function.arity != n:
        raise ValueError("function arity must equal the string length n")
    strings = p5_sample_strings(b, m, function, rng)
    alphas = rng.gen.uniform(0.0, 2 * np.pi, size=(m, n))
    states: Optional[np.ndarray] = blinded_amps(alphas, np.array(strings))
    records: Optional[list[list[Optional[tuple[str, str]]]]] = None
    if measure_at_commit:
        records = p5_measure_record(states, alphas, rng)
        states = None
    else:
        states.flags.writeable = False
    alphas.flags.writeable = False
    return P5CommitTranscript(
        sender=P5SenderState(
            protocol_id=PROTOCOL_P5, bit=b, m=m, n=n, function=function, strings=strings
        ),
        receiver=P5ReceiverState(
            protocol_id=PROTOCOL_P5,
            m=m,
            n=n,
            function=function,
            alphas=alphas,
            states=states,
            records=records,
        ),
    )


def p5_open(sender_state: P5SenderState) -> P5OpenMessage:
    return P5OpenMessage(
        protocol_id=PROTOCOL_P5, bit=sender_state.bit, strings=sender_state.strings
    )


def p5_verify_records(
    open_msg: P5OpenMessage,
    records: list[list[Optional[tuple[str, str]]]],
    function: BooleanFunctionSpec,
) -> VerifyResult:
    """Check declared strings against function value and conclusive outcomes.

    A None record means the detector never clicked for that qubit; nothing
    can be checked there, so it is skipped.
    """
    if open_msg.protocol_id != PROTOCOL_P5:
        return _reject("protocol identifier mismatch")
    if open_msg.bit not in (0, 1):
        return _reject("declared value is not a bit")
    if len(open_msg.strings) != len(records):
        return _reject("string count mismatch")
    for i, string in enumerate(open_msg.strings, start=1):
        if len(string) != function.arity:
            return _reject(f"string {i}: wrong length")
        if function(string) != open_msg.bit:
            return _reject(f"string {i}: function value does not match the declared bit")
    for i, (string, row) in enumerate(zip(open_msg.strings, records), start=1):
        for j, record in enumerate(row, start=1):
            if record is None:
                continue
            value = p5_record_value(record)
            if value is not None and value != string[j - 1]:
                return _reject(
                    f"qubit ({i},{j}): conclusive outcome contradicts the declared bit"
                )
    return VerifyResult(accepted=True, recovered_bit=open_msg.bit, first_inconsistency=None)


def p5_open_verify(
    sender_state: P5SenderState, receiver_state: P5ReceiverState, rng: RngStream
) -> VerifyResult:
    """Open and verify in one step, measuring now if measurement was deferred."""
    return p5_verify_records(
        p5_open(sender_state), _p5_records(receiver_state, rng), receiver_state.function
    )


def _p5_records(
    receiver_state: P5ReceiverState, rng: Optional[RngStream]
) -> list[list[Optional[tuple[str, str]]]]:
    """The commit-time records, or the held qubits measured now."""
    if receiver_state.records is not None:
        return receiver_state.records
    if rng is None:
        raise ValueError("deferred measurement needs an rng at open time")
    return p5_measure_record(receiver_state.states, receiver_state.alphas, rng)


# ---------------------------------------------------------------------------
# JSON views (classical data only)


def sender_state_to_dict(state) -> dict:
    if isinstance(state, P5SenderState):
        return {
            "protocol_id": state.protocol_id,
            "bit": state.bit,
            "m": state.m,
            "n": state.n,
            "function": state.function.name,
            "strings": [list(s) for s in state.strings],
        }
    return {
        "protocol_id": state.protocol_id,
        "bit": state.bit,
        "l": state.l,
        "n": state.n,
        "k": state.k,
        "theta": state.theta,
        "rounds": [
            {
                "share0": rnd.share0,
                "share1": rnd.share1,
                "r": [int(x) for x in rnd.bits],
                "x_set": list(rnd.x_set),
                "y_set": list(rnd.y_set),
                "c0": rnd.c0,
                "c1": rnd.c1,
            }
            for rnd in state.rounds
        ],
    }


def receiver_state_to_dict(state) -> dict:
    if isinstance(state, P5ReceiverState):
        if state.records is None:
            raise ValueError("only commit-time-measured runs serialize; qubits are not JSON")
        return {
            "protocol_id": state.protocol_id,
            "m": state.m,
            "n": state.n,
            "function": state.function.name,
            "alphas": [[float(a) for a in row] for row in state.alphas],
            "records": [
                [list(rec) if rec is not None else None for rec in row]
                for row in state.records
            ],
        }
    return {
        "protocol_id": state.protocol_id,
        "l": state.l,
        "n": state.n,
        "k": state.k,
        "theta": state.theta,
        "rounds": [
            {
                "m": rnd.m,
                "i_set": list(rnd.i_set),
                "j_set": list(rnd.j_set),
                "conclusive": [{"pos": pos, "val": val} for pos, val in rnd.conclusive],
                "c0": rnd.c0,
                "c1": rnd.c1,
                "received_share": rnd.received_share,
            }
            for rnd in state.rounds
        ],
    }


def open_message_to_dict(msg) -> dict:
    if isinstance(msg, P5OpenMessage):
        return {
            "protocol_id": msg.protocol_id,
            "bit": msg.bit,
            "strings": [list(s) for s in msg.strings],
        }
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


_FUNCTION_REGISTRY = {"parity": parity_function}


def _function_from_name(name: str, arity: int) -> BooleanFunctionSpec:
    if name not in _FUNCTION_REGISTRY:
        raise ValueError(f"unknown boolean function {name!r}")
    return _FUNCTION_REGISTRY[name](arity)


def _field(d, key: str, read, where: str = ""):
    """read(d[key]) for a transcript read from untrusted JSON.

    A missing field, or one that `read` refuses with a TypeError or
    ValueError, raises a ValueError naming the field.
    """
    try:
        value = d[key]
    except KeyError:
        raise ValueError(f"missing field {where + key!r}") from None
    except (TypeError, IndexError):
        raise ValueError(
            f"expected a JSON object with field {where + key!r}, got {type(d).__name__}"
        ) from None
    try:
        return read(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"field {where + key!r} is malformed: {exc}") from None


def _int(x) -> int:
    if type(x) is not int:  # a JSON bool is no integer here
        raise TypeError(f"expected an integer, got {type(x).__name__}")
    return x


def _float(x) -> float:
    if type(x) not in (int, float):
        raise TypeError(f"expected a number, got {type(x).__name__}")
    return float(x)


def _str(x) -> str:
    if not isinstance(x, str):
        raise TypeError(f"expected a string, got {type(x).__name__}")
    return x


def _list(x) -> list:
    if not isinstance(x, list):
        raise TypeError(f"expected a list, got {type(x).__name__}")
    return x


def _ints(x) -> tuple[int, ...]:
    values = tuple(_list(x))
    for v in values:
        if type(v) is not int:
            raise TypeError(f"expected a list of integers, got a {type(v).__name__}")
    return values


def _bits(x) -> np.ndarray:
    bits = _ints(x)
    if not set(bits) <= {0, 1}:
        raise ValueError("expected a list of bits")
    return np.array(bits, dtype=np.int8)


def _int_rows(x) -> tuple[tuple[int, ...], ...]:
    return tuple(_ints(row) for row in _list(x))


def _float_rows(x) -> np.ndarray:
    return np.array([[_float(v) for v in _list(row)] for row in _list(x)], dtype=np.float64)


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


def _record(x) -> Optional[tuple[str, str]]:
    if x is None:
        return None
    if len(_list(x)) != 2:
        raise ValueError("an outcome record is a [basis, outcome] pair")
    return (_str(x[0]), _str(x[1]))


def _records(x) -> list[list[Optional[tuple[str, str]]]]:
    return [[_record(rec) for rec in _list(row)] for row in _list(x)]


def _rounds(d: dict) -> list[tuple[dict, str]]:
    """(round, its field prefix) for every entry of d["rounds"]."""
    return [(rnd, f"rounds[{i}].") for i, rnd in enumerate(_field(d, "rounds", _list))]


def sender_state_from_dict(d: dict):
    if _field(d, "protocol_id", _str) == PROTOCOL_P5:
        n = _field(d, "n", _int)
        return P5SenderState(
            protocol_id=PROTOCOL_P5,
            bit=_field(d, "bit", _int),
            m=_field(d, "m", _int),
            n=n,
            function=_function_from_name(_field(d, "function", _str), n),
            strings=_field(d, "strings", _int_rows),
        )
    rounds = tuple(
        SenderCommitRound(
            share0=_field(rnd, "share0", _int, at),
            share1=_field(rnd, "share1", _int, at),
            bits=_field(rnd, "r", _bits, at),
            x_set=_field(rnd, "x_set", _ints, at),
            y_set=_field(rnd, "y_set", _ints, at),
            c0=_field(rnd, "c0", _int, at),
            c1=_field(rnd, "c1", _int, at),
        )
        for rnd, at in _rounds(d)
    )
    return CommitSenderState(
        protocol_id=d["protocol_id"],
        bit=_field(d, "bit", _int),
        l=_field(d, "l", _int),
        n=_field(d, "n", _int),
        k=_field(d, "k", _int),
        theta=_field(d, "theta", _float),
        rounds=rounds,
    )


def receiver_state_from_dict(d: dict):
    if _field(d, "protocol_id", _str) == PROTOCOL_P5:
        m, n = _field(d, "m", _int), _field(d, "n", _int)
        alphas = _field(d, "alphas", _float_rows)
        records = _field(d, "records", _records)
        if alphas.shape != (m, n):
            raise ValueError(f"field 'alphas' must hold m x n = {m} x {n} angles")
        if [len(row) for row in records] != [n] * m:
            raise ValueError(f"field 'records' must hold m x n = {m} x {n} entries")
        return P5ReceiverState(
            protocol_id=PROTOCOL_P5,
            m=m,
            n=n,
            function=_function_from_name(_field(d, "function", _str), n),
            alphas=alphas,
            states=None,
            records=records,
        )
    rounds = tuple(
        ReceiverCommitRound(
            m=_field(rnd, "m", _int, at),
            i_set=_field(rnd, "i_set", _ints, at),
            j_set=_field(rnd, "j_set", _ints, at),
            conclusive=_field(rnd, "conclusive", _pos_vals, at),
            c0=_field(rnd, "c0", _int, at),
            c1=_field(rnd, "c1", _int, at),
            received_share=_field(rnd, "received_share", _int, at),
        )
        for rnd, at in _rounds(d)
    )
    return CommitReceiverState(
        protocol_id=d["protocol_id"],
        l=_field(d, "l", _int),
        n=_field(d, "n", _int),
        k=_field(d, "k", _int),
        theta=_field(d, "theta", _float),
        rounds=rounds,
    )


def open_message_from_dict(d: dict):
    if _field(d, "protocol_id", _str) == PROTOCOL_P5:
        return P5OpenMessage(
            protocol_id=PROTOCOL_P5,
            bit=_field(d, "bit", _int),
            strings=_field(d, "strings", _int_rows),
        )
    rounds = tuple(
        OpenRound(
            share0=_field(rnd, "share0", _int, at),
            share1=_field(rnd, "share1", _int, at),
            declared_x=_field(rnd, "declared_x", _pos_vals, at),
            declared_y=_field(rnd, "declared_y", _pos_vals, at),
        )
        for rnd, at in _rounds(d)
    )
    return OpenMessage(protocol_id=d["protocol_id"], rounds=rounds)


def verify_from_states(receiver_state, open_msg, rng: Optional[RngStream] = None) -> VerifyResult:
    """Dispatch verification by protocol family."""
    if isinstance(receiver_state, P5ReceiverState):
        if not isinstance(open_msg, P5OpenMessage):
            return _reject("protocol identifier mismatch")
        records = _p5_records(receiver_state, rng)
        return p5_verify_records(open_msg, records, receiver_state.function)
    if isinstance(open_msg, OpenMessage):
        return bc_verify(receiver_state, open_msg)
    return _reject("protocol identifier mismatch")
