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

import numpy as np

from .bitcommit import (
    ENCODE_ANGLE,
    P5OpenMessage,
    P5ReceiverState,
    PROTOCOL_P5,
    blinded_amps,
    blinding_angles,
    p3_bases,
    p3_pair_states,
    p5_measure_record,
    p5_verify,
    parity_function,
    unblind_outcomes,
)
from .qsim import (
    DensityMatrix,
    RngStream,
    StateVector,
    apply_on_qubit,
    bell_state,
    born_probabilities,
    fidelity,
    make_nonorthogonal_pair,
    rotate_rows,
    rotation_plane,
)
from .rot import PERP_INDEX, honest_probabilities

_SUPPORT_TOL = 1e-9


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


def nogo_reduced_states(inst: NoGoInstance) -> tuple[DensityMatrix, DensityMatrix]:
    """Receiver-side states for commit 0 and commit 1.

    Each is the uniform mixture, over all two_k-bit strings of the target
    parity, of the product of the corresponding non-orthogonal signal states.
    Summing the products over one parity class gives the closed form
    rho_p = mean**(x)N + (-1)**p * half_diff**(x)N with N = two_k, where
    mean = (P0 + P1) / 2 and half_diff = (P0 - P1) / 2 for the signal
    projectors P_b = |psi_b><psi_b|.
    """
    psi0, psi1 = make_nonorthogonal_pair(inst.theta)
    p0 = np.outer(psi0.amps, psi0.amps.conj())
    p1 = np.outer(psi1.amps, psi1.amps.conj())
    mean = functools.reduce(np.kron, [(p0 + p1) / 2] * inst.two_k)
    half_diff = functools.reduce(np.kron, [(p0 - p1) / 2] * inst.two_k)
    return tuple(
        DensityMatrix(num_qubits=inst.two_k, entries=mean + (-1) ** parity * half_diff)
        for parity in (0, 1)
    )


def nogo_fidelity(inst: NoGoInstance) -> float:
    rho0, rho1 = nogo_reduced_states(inst)
    return fidelity(rho0, rho1)


def nogo_cheating_unitary(rho0: DensityMatrix, rho1: DensityMatrix) -> np.ndarray:
    """Ancilla unitary steering the purification of rho0 onto that of rho1.

    Built from the singular value decomposition of the cross-Gram matrix of
    the two eigen-purifications; the achieved overlap equals the fidelity.
    The purifications are laid out ancilla index by rows, so the unitary
    acts on them by left multiplication.
    """
    if rho0.entries.shape != rho1.entries.shape:
        raise ValueError("the two states must share one dimension")
    cross_gram = rho0.purification_amps.T @ rho1.purification_amps.conj()
    u, _, vh = np.linalg.svd(cross_gram)
    return vh.conj().T @ u.conj().T


def uhlmann_overlap(rho0: DensityMatrix, rho1: DensityMatrix, unitary: np.ndarray) -> float:
    """|<purification1 | (U x I) purification0>| for the eigen-purifications."""
    return float(abs(np.vdot(rho1.purification_amps.T, unitary @ rho0.purification_amps.T)))


def nogo_cheat_report(inst: NoGoInstance) -> CheatReport:
    rho0, rho1 = nogo_reduced_states(inst)
    f = fidelity(rho0, rho1)
    unitary = nogo_cheating_unitary(rho0, rho1)
    overlap = uhlmann_overlap(rho0, rho1, unitary)
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


def entangle_probe(state: StateVector, control_qubit: int) -> StateVector:
    """Append a fresh probe qubit copying the control in the standard basis."""
    n = state.num_qubits
    if not 0 <= control_qubit < n:
        raise ValueError("control qubit out of range")
    old = state.amps.reshape([2] * n)
    new = np.zeros([2] * (n + 1), dtype=np.complex128)
    take = [slice(None)] * n
    for c in (0, 1):
        sl = list(take)
        sl[control_qubit] = c
        new[tuple(sl) + (c,)] = old[tuple(sl)]
    return StateVector(num_qubits=n + 1, amps=new.reshape(-1))


def p3_probe_pre_state() -> StateVector:
    """Transit qubit copied onto the probe before any encoding.

    Qubit order: transit, receiver's half, probe.
    """
    return entangle_probe(bell_state("phi-"), 0)


@functools.lru_cache(maxsize=1)
def _p3_probe_tables() -> tuple[np.ndarray, np.ndarray]:
    """Outcome distributions and detection masks for all (r, basis) cells.

    Row 2*r + basis holds the four outcome probabilities of the probed state
    under that cell; the mask marks outcomes no honest encoding can produce
    in that basis, whichever bit was encoded.
    """
    bases = p3_bases()
    pre = p3_probe_pre_state()
    encode = rotation_plane(ENCODE_ANGLE)
    attacked = (pre, apply_on_qubit(pre, 0, encode))
    honest = p3_pair_states()
    probs = np.zeros((4, 4))
    masks = np.zeros((4, 4), dtype=bool)
    for r in (0, 1):
        for x in (0, 1):
            probs[2 * r + x] = born_probabilities(attacked[r], bases[x], qubits=(0, 1))
            support = np.zeros(4, dtype=bool)
            for state in honest:
                support |= born_probabilities(state, bases[x]) > _SUPPORT_TOL
            masks[2 * r + x] = ~support
    return probs, masks


def p3_probe_outcome_table(r: int, basis_index: int) -> np.ndarray:
    """Outcome probabilities of the probed state in one (r, basis) cell."""
    if r not in (0, 1) or basis_index not in (0, 1):
        raise ValueError("r and basis_index are bits")
    probs, _ = _p3_probe_tables()
    return probs[2 * r + basis_index].copy()


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
    cells = rng.gen.integers(0, 4, size=(trials, n))
    u = rng.gen.random(size=(trials, n))
    # one outcome column at a time, so no (trials, n, 4) array is built
    outcomes = np.zeros(cells.shape, dtype=np.intp)
    for j in range(cum.shape[1]):
        outcomes += u >= cum[:, j][cells]
    # flat (cell, outcome) index, built in place: a temporary of this size
    # raises the process's peak memory by about 0.5 MB
    cells *= masks.shape[1]
    cells += outcomes
    return masks.ravel()[cells]


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
    amps = entangle_probe_rows(blinded_amps(alphas))
    _, decoded = unblind_outcomes(rotate_rows(amps, ENCODE_ANGLE * r), alphas, rng)
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


@dataclass(frozen=True)
class OmissionAttackReport:
    detected_at_commit: bool
    open_zero_accepted: bool
    open_one_accepted: bool

    @property
    def succeeded(self) -> bool:
        return (
            not self.detected_at_commit
            and self.open_zero_accepted
            and self.open_one_accepted
        )


def omission_attack_p5(
    n: int, m: int, perfect_detectors: bool, rng: RngStream
) -> OmissionAttackReport:
    """Withhold one qubit per string, then open either bit.

    The committer encodes every string position honestly except one withheld
    qubit per string, which never reaches the receiver. With perfect
    detectors the missing click is registered and the commit is rejected on
    the spot. Otherwise the receiver's record simply has a hole, and at open
    time the committer declares the withheld bits to give the strings
    whichever parity she wants; nothing contradicts the holes, so both
    openings pass.
    """
    if n < 2:
        raise ValueError("need strings of length at least 2")
    if m < 1:
        raise ValueError("need at least one string")
    withheld = rng.gen.integers(0, n, size=m)
    sent_bits = rng.bits(m * n).reshape(m, n)
    alphas = blinding_angles(rng, (m, n))
    present = np.arange(n) != withheld[:, np.newaxis]
    records = p5_measure_record(blinded_amps(alphas, sent_bits), alphas, rng, present)
    if perfect_detectors:
        detected = bool((records.basis < 0).any())
        return OmissionAttackReport(
            detected_at_commit=detected,
            open_zero_accepted=False,
            open_one_accepted=False,
        )
    receiver = P5ReceiverState(
        protocol_id=PROTOCOL_P5, function=parity_function(n), records=records
    )
    accepted = {}
    for target in (0, 1):
        strings = []
        for i in range(m):
            declared = sent_bits[i].tolist()
            w = int(withheld[i])
            partial = (sum(declared) - declared[w]) & 1
            declared[w] = partial ^ target
            strings.append(tuple(declared))
        msg = P5OpenMessage(protocol_id=PROTOCOL_P5, bit=target, strings=tuple(strings))
        accepted[target] = p5_verify(receiver, msg).accepted
    return OmissionAttackReport(
        detected_at_commit=False,
        open_zero_accepted=accepted[0],
        open_one_accepted=accepted[1],
    )
