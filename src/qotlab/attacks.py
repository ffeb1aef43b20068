"""Adversarial strategies against the transfer and commitment protocols.

Four families:

* the unambiguous-discrimination receiver lives in the transfer module
  (run it with strategy "usd"); this module adds the committer-side attacks,
* the purification attack on share-parity commitments: the two commitments
  reduce on the receiver's side to two highly overlapping mixed states, and
  a committer who keeps a purification can steer one onto the other with a
  local unitary, switching her bit almost undetectably,
* the probe attack on the entangled-pair commitment: the committer copies
  the transit qubit onto a probe before encoding, which the receiver's pair
  measurement detects with probability one half per qubit,
* the same probe strategy against the blinded channel (where the secret
  rotation makes it visibly noisy), and the qubit-omission attack on the
  direct commitment, which breaks binding unless every missing detector
  click aborts the run.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bitcommit import (
    ENCODE_ANGLE,
    P5OpenMessage,
    P5ReceiverState,
    PROTOCOL_P5,
    blinded_amps,
    blinding_angles,
    p3_bases,
    p3_possible,
    p5_measure_record,
    p5_verify,
    parity_function,
)
from .qsim import (
    DensityMatrix,
    RngStream,
    StateVector,
    apply_on_qubit,
    bell_state,
    born_probabilities,
    inverse_cdf,
    rotate_rows,
    rotation_plane,
)
from .qsim.states import CONSTRUCTION_ATOL
from .rot import HONEST_DECODE, PERP_INDEX, encoding_amps, honest_draws, honest_probabilities

# Not used below (the report reads the purifications), but bench/tracing.py
# wraps the mixed-state fidelity under this name here.
from .qsim import fidelity  # noqa: F401


# ---------------------------------------------------------------------------
# purification attack on share-parity commitments


@dataclass(frozen=True)
class NoGoInstance:
    """One attack instance: the receiver sees two_k qubits whose encoded bits
    have a parity fixed by the committed value."""

    two_k: int
    theta: float = ENCODE_ANGLE

    def __post_init__(self):
        if self.two_k < 2 or self.two_k % 2 != 0:
            raise ValueError("two_k must be an even integer >= 2")
        if self.two_k > 10:
            raise ValueError("two_k above 10 needs more than dense matrices")
        if not 0.0 <= self.theta <= np.pi / 2:
            raise ValueError("theta must lie in [0, pi/2]")


@dataclass(frozen=True)
class CheatReport:
    fidelity: float
    achieved_overlap: float
    detection_probability: float

    def __post_init__(self):
        for name in ("fidelity", "achieved_overlap", "detection_probability"):
            value = getattr(self, name)
            if not -1e-12 <= value <= 1.0 + 1e-12:
                raise ValueError(f"{name} must be a probability-like value in [0, 1]")
        if abs(self.achieved_overlap - self.fidelity) > 1e-8:
            raise ValueError("constructed unitary fails to attain the fidelity")


def _tensor_power(m: np.ndarray, n: int) -> np.ndarray:
    """m (x) m (x) ... (x) m with n factors of a 2x2 matrix, each factor
    appended by broadcast and reshape (what np.kron does, without its
    general-shape bookkeeping)."""
    out = m
    for _ in range(n - 1):
        out = (out[:, None, :, None] * m[:, None, :]).reshape(2 * len(out), -1)
    return out


@functools.lru_cache(maxsize=None)
def _odd_parity(num_bits: int) -> np.ndarray:
    """Read-only mask of the num_bits-bit strings of odd parity, in np.kron's
    order: prepending a bit of 1 flips the parity (the Thue-Morse sequence)."""
    odd = np.zeros(1, dtype=bool)
    for _ in range(num_bits):
        odd = np.concatenate([odd, ~odd])
    odd.flags.writeable = False
    return odd


def nogo_reduced_states(inst: NoGoInstance) -> tuple[DensityMatrix, DensityMatrix]:
    """Receiver-side states for commit 0 and commit 1.

    Each is the uniform mixture, over all two_k-bit strings of the target
    parity, of the product of the corresponding non-orthogonal signal states.
    Summing the products over one parity class gives the closed form
    rho_p = mean**(x)N + (-1)**p * half_diff**(x)N with N = two_k, where
    mean = (P0 + P1) / 2 and half_diff = (P0 - P1) / 2 for the signal
    projectors P_b = |psi_b><psi_b|.
    """
    # the pair comes from a real plane rotation, so its amplitudes are real
    p0, p1 = (np.outer(psi, psi) for psi in encoding_amps(inst.theta).real)
    mean = _tensor_power((p0 + p1) / 2, inst.two_k)
    half_diff = _tensor_power((p0 - p1) / 2, inst.two_k)
    return tuple(
        DensityMatrix(num_qubits=inst.two_k, entries=mean + (-1) ** parity * half_diff)
        for parity in (0, 1)
    )


def nogo_purifications(inst: NoGoInstance) -> tuple[np.ndarray, np.ndarray]:
    """The committer's own purifications of the two receiver-side states.

    For parity p, column s of the (2**N, 2**(N - 1)) real array is the
    product state psi_s of one N-bit string s of parity p, scaled by
    2**(-(N - 1) / 2), so A_p A_p^T is the parity state rho_p and the
    ancilla index is the committed string itself. The product states of
    all 2**N strings are the columns of the N-th tensor power of the 2x2
    matrix [psi_0 psi_1], in np.kron's order.
    """
    # the cached pair, column b encoding bit b; its amplitudes are real
    products = _tensor_power(encoding_amps(inst.theta).T.real, inst.two_k)
    odd = _odd_parity(inst.two_k)
    scale = 2.0 ** (-(inst.two_k - 1) / 2)
    amps = (products[:, ~odd] * scale, products[:, odd] * scale)
    for a in amps:
        if abs(np.linalg.norm(a) - 1.0) > CONSTRUCTION_ATOL:
            raise ValueError("parity purification does not have unit norm")
    return amps


def nogo_cheating_unitary(amps0: np.ndarray, amps1: np.ndarray) -> tuple[np.ndarray, float]:
    """Ancilla unitary steering purification amps0 onto amps1, and the
    fidelity it attains.

    Each purification holds the system index by rows and the ancilla index
    by columns (`nogo_purifications`, or a state's `purification_amps`).
    One singular value decomposition of the cross-Gram matrix serves both
    (Uhlmann): the fidelity is the sum of its singular values and the
    unitary is built from its factors. The unitary acts on the ancilla by
    left multiplication of the transposed purifications.
    """
    if amps0.shape != amps1.shape:
        raise ValueError("the two purifications must share one shape")
    cross_gram = amps0.T @ amps1.conj()
    u, singular_values, vh = np.linalg.svd(cross_gram)
    return vh.conj().T @ u.conj().T, float(min(1.0, singular_values.sum()))


def uhlmann_overlap(amps0: np.ndarray, amps1: np.ndarray, unitary: np.ndarray) -> float:
    """|<purification1 | (I x U) purification0>|, the ancilla rotated by U."""
    return float(abs(np.vdot(amps1.T, unitary @ amps0.T)))


def nogo_cheat_report(inst: NoGoInstance) -> CheatReport:
    amps0, amps1 = nogo_purifications(inst)
    unitary, f = nogo_cheating_unitary(amps0, amps1)
    overlap = uhlmann_overlap(amps0, amps1, unitary)
    return CheatReport(
        fidelity=f,
        achieved_overlap=overlap,
        detection_probability=max(0.0, 1.0 - overlap**2),
    )


# ---------------------------------------------------------------------------
# probe attack on the entangled-pair commitment


def entangle_probe_rows(amps: np.ndarray) -> np.ndarray:
    """Append a fresh probe qubit copying qubit 0 in the standard basis, to
    every row of an (N, 2**n) amplitude array; the probe comes last."""
    rows, dim = amps.shape
    old = amps.reshape(rows, 2, dim // 2)
    new = np.zeros(old.shape + (2,), dtype=np.result_type(amps, np.float64))
    new[:, 0, :, 0] = old[:, 0]
    new[:, 1, :, 1] = old[:, 1]
    return new.reshape(rows, 2 * dim)


def p3_probe_pre_state() -> StateVector:
    """Transit qubit copied onto the probe before any encoding.

    Qubit order: transit, receiver's half, probe.
    """
    amps = entangle_probe_rows(bell_state("phi-").amps[np.newaxis])[0]
    return StateVector(num_qubits=3, amps=amps)


@functools.lru_cache(maxsize=1)
def _p3_probe_tables() -> tuple[np.ndarray, np.ndarray]:
    """Outcome distributions and detection masks for all (r, basis) cells.

    Row 2*r + basis holds the four outcome probabilities of the probed state
    under that cell; the mask marks outcomes no honest encoding can produce
    in that basis, whichever bit was encoded.
    """
    bases = p3_bases()
    pre = p3_probe_pre_state()
    attacked = (pre, apply_on_qubit(pre, 0, rotation_plane(ENCODE_ANGLE)))
    probs = np.array(
        [born_probabilities(attacked[r], bases[x], qubits=(0, 1)) for r in (0, 1) for x in (0, 1)]
    )
    impossible = ~p3_possible().any(axis=0)
    return probs, np.tile(impossible, (2, 1))


def p3_probe_detection_probability(r: int, basis_index: int) -> float:
    """Exact probability of an honestly-impossible outcome in one cell."""
    if r not in (0, 1) or basis_index not in (0, 1):
        raise ValueError("r and basis_index are bits")
    probs, masks = _p3_probe_tables()
    return float(probs[2 * r + basis_index] @ masks[2 * r + basis_index])


def probe_attack_p3(n: int, trials: int, rng: RngStream) -> np.ndarray:
    """Monte-Carlo campaign of the copy-probe attack over full runs.

    Per qubit the committer entangles a probe, then encodes a uniform bit;
    the receiver picks a pair basis uniformly and an honestly-impossible
    outcome counts as detection. Returns the (trials, n) detection grid; a
    run succeeds when its row holds no detection.
    """
    if n < 1 or trials < 1:
        raise ValueError("need a positive qubit count and trial count")
    probs, masks = _p3_probe_tables()
    cum = np.cumsum(probs, axis=1)
    # the draw's dtype sets how many generator bits it takes, so the cells are
    # drawn as int64 and narrowed at once: each of the kernel's four cell
    # comparisons then reads an eighth of the bytes, and the wide array is
    # freed before the uniforms are drawn
    cells = rng.gen.integers(0, 4, size=(trials, n)).astype(np.int8)
    u = rng.gen.random(size=(trials, n))
    # inverse-CDF sampling passes the running sum cum[cell, j] on its way to
    # outcome j + 1, so detection flips from mask[0] at each such crossing
    # where the mask differs between outcomes j and j + 1
    detected = np.zeros(cells.shape, dtype=bool)
    for cell, (mask, edges) in enumerate(zip(masks, cum)):
        hit = np.full(cells.shape, mask[0])
        for j in np.flatnonzero(mask[:-1] != mask[1:]):
            hit ^= u >= edges[j]
        detected |= hit & (cells == cell)
    return detected


# ---------------------------------------------------------------------------
# the same probe against the blinded channel


def probe_attack_p4(n: int, trials: int, rng: RngStream) -> np.ndarray:
    """The copy probe against blinded qubits, caught at open time.

    Detection means a conclusive outcome contradicting the bit the committer
    later declares; every qubit gets a fresh uniform blinding angle. Returns
    the (trials, n) detection grid.
    """
    if n < 1 or trials < 1:
        raise ValueError("need a positive qubit count and trial count")
    size = trials * n
    alphas = blinding_angles(rng, size)
    r = rng.bits(size)
    probed = rotate_rows(entangle_probe_rows(blinded_amps(alphas)), ENCODE_ANGLE * r)
    # the probe leaves the turned-back qubit off the coding pair: no table, a Born step per row
    x, u = honest_draws(rng, size)
    probs = honest_probabilities(rotate_rows(probed, -alphas), ENCODE_ANGLE, x)
    decoded = HONEST_DECODE[x, inverse_cdf(probs, u)]
    return ((decoded >= 0) & (decoded != r)).reshape(trials, n)


def p4_probe_detection_probability(alphas) -> np.ndarray:
    """Exact per-qubit detection of the copy probe at each blinding angle.

    The sampled path without the sampling: the probed blinded qubit is
    encoded with bit r, unblinded and put through the honest Born step, and
    the result is averaged over the uniform r and basis bit x. The
    conclusive outcome in basis x decodes x xor 1, so it contradicts r only
    when x = r.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    probed = entangle_probe_rows(blinded_amps(alphas))
    total = np.zeros(len(alphas))
    for r in (0, 1):
        unblinded = rotate_rows(rotate_rows(probed, ENCODE_ANGLE * r), -alphas)
        basis = np.full(len(alphas), r)
        total += honest_probabilities(unblinded, ENCODE_ANGLE, basis)[:, PERP_INDEX]
    return total / 4.0


# ---------------------------------------------------------------------------
# qubit omission against the direct commitment


class OmissionAttackReport(NamedTuple):
    """Per-trial outcomes of an omission campaign, each a (trials,) bool array."""

    detected_at_commit: np.ndarray
    open_zero_accepted: np.ndarray
    open_one_accepted: np.ndarray

    @property
    def succeeded(self) -> np.ndarray:
        return ~self.detected_at_commit & self.open_zero_accepted & self.open_one_accepted


def omission_attack_p5(
    n: int, m: int, trials: int, perfect_detectors: bool, camp: RngStream
) -> OmissionAttackReport:
    """Withhold one qubit per string, then open either bit; `trials` runs.

    The committer encodes every string position honestly except one withheld
    qubit per string, which never reaches the receiver. With perfect
    detectors the missing click is registered and the commit is rejected on
    the spot. Otherwise the receiver's record simply has a hole, and at open
    time the committer declares the withheld bits to give the strings
    whichever parity she wants; nothing contradicts the holes, so both
    openings pass.

    Trial t draws its withheld positions, bits, blinding angles and the
    receiver's draws from `camp.substream(t)`; the receiver then measures the
    (trials * m, n) grid of every trial's strings in one pass.
    """
    if n < 2:
        raise ValueError("need strings of length at least 2")
    if m < 1:
        raise ValueError("need at least one string")
    if trials < 1:
        raise ValueError("need a positive trial count")
    draws = []
    for t in range(trials):
        rng = camp.substream(t)
        withheld = rng.gen.integers(0, n, size=m)
        sent_bits = rng.bits(m * n)
        # the receiver's secret angles; unblinding cancels them (p4_unblind_and_measure)
        blinding_angles(rng, (m, n))
        draws.append((withheld, sent_bits, *honest_draws(rng, m * (n - 1))))
    withheld, sent_bits, x, u = (np.concatenate(column) for column in zip(*draws))
    present = np.arange(n) != withheld[:, np.newaxis]
    if perfect_detectors:
        # the missing clicks reject the commit before anything is measured
        detected = ~present.reshape(trials, m * n).all(axis=1)
        never = np.zeros(trials, dtype=bool)
        return OmissionAttackReport(detected, never, never)
    sent_bits = sent_bits.reshape(trials * m, n)
    decoded = p5_measure_record(sent_bits, x, u, present)
    # the withheld bit of each string sets its parity to the target
    rows = np.arange(trials * m)
    partial = (sent_bits.sum(axis=1) - sent_bits[rows, withheld]) & 1
    function = parity_function(n)
    stacked = P5ReceiverState(protocol_id=PROTOCOL_P5, function=function, decoded=decoded)
    accepted = np.zeros((2, trials), dtype=bool)
    for target in (0, 1):
        declared = sent_bits.copy()
        declared[rows, withheld] = partial ^ target
        strings = tuple(map(tuple, declared.tolist()))
        # every check of p5_verify reads one string or one cell, so the
        # stacked opening passes iff every trial's opening passes
        opening = P5OpenMessage(protocol_id=PROTOCOL_P5, bit=target, strings=strings)
        if p5_verify(stacked, opening).accepted:
            accepted[target] = True
            continue
        for t in range(trials):
            cut = slice(t * m, (t + 1) * m)
            receiver = P5ReceiverState(
                protocol_id=PROTOCOL_P5, function=function, decoded=decoded[cut]
            )
            msg = P5OpenMessage(protocol_id=PROTOCOL_P5, bit=target, strings=strings[cut])
            accepted[target, t] = p5_verify(receiver, msg).accepted
    return OmissionAttackReport(np.zeros(trials, dtype=bool), accepted[0], accepted[1])
