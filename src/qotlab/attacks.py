"""Adversarial strategies against the transfer and commitment protocols.

Four families:

* the unambiguous-discrimination receiver lives in the transfer module
  (run it with strategy "usd"); this module adds the committer-side attacks,
* the purification attack on share-parity commitments: the two commitments
  reduce on the receiver's side to two highly overlapping mixed states, and
  a committer who keeps a purification can steer one onto the other with a
  local unitary, switching her bit almost undetectably; in the
  Walsh-Hadamard basis that unitary is one fixed matrix per size and the
  fidelity a closed-form sum,
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
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bitcommit import (
    ENCODE_ANGLE,
    P5OpenMessage,
    P5ReceiverState,
    PROTOCOL_P5,
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
    rotation_plane,
)
from .qsim.states import CONSTRUCTION_ATOL
from .rot import encoding_amps, honest_draws

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
        _check_parity_instance(self.two_k, self.theta)
        if self.two_k > 10:
            raise ValueError("two_k above 10 needs more than dense matrices")


def _check_parity_instance(two_k: int, theta: float) -> None:
    if two_k < 2 or two_k % 2 != 0:
        raise ValueError("two_k must be an even integer >= 2")
    if not 0.0 <= theta <= np.pi / 2:
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
    """m (x) m (x) ... (x) m with n factors of a 2x2 matrix, bit for bit as
    np.kron's fold builds it."""
    return _factor_products(m, n).take(_kron_positions(n))


def _factor_products(m: np.ndarray, n: int) -> np.ndarray:
    """The entries of the n-th tensor power of a 2x2 matrix, flat, with
    the last factor's entry as the most significant index.

    Each step multiplies the products so far by one more factor, as
    np.kron's fold does, so every entry rounds the same way; but here the
    new factor goes in front, and a step is one (4, 1) by (L,) outer product
    of contiguous rows, where appending it behind takes a four-axis
    broadcast with inner rows of two. Entry (r, c) of the power, whose
    bits r_t and c_t (t = 1 the most significant) pick factor t's entry,
    sits at sum_t (2 r_t + c_t) 4**(t - 1) (`_kron_positions`).
    """
    entries = m.ravel()
    column = entries[:, np.newaxis]
    out = entries
    for _ in range(n - 1):
        out = (column * out).ravel()
    return out


def _kron_positions(num_bits: int) -> np.ndarray:
    """The index in `_factor_products` of each entry of the tensor power,
    as a (2**num_bits, 2**num_bits) array in np.kron's order: a string's
    bits, reversed, spread to every other base-4 digit."""
    strings = np.arange(2**num_bits)
    spread = np.zeros_like(strings)
    for bit in range(num_bits):
        spread += ((strings >> bit) & 1) * 4 ** (num_bits - 1 - bit)
    return 2 * spread[:, np.newaxis] + spread


@functools.lru_cache(maxsize=None)
def _bit_counts(num_bits: int) -> np.ndarray:
    """Read-only table of the number of 1 bits of each num_bits-bit string,
    in np.kron's order: prepending a bit of 1 adds one to every count."""
    counts = np.zeros(1, dtype=np.intp)
    for _ in range(num_bits):
        counts = np.concatenate([counts, counts + 1])
    counts.flags.writeable = False
    return counts


@functools.lru_cache(maxsize=None)
def _parity_columns(num_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only indices of the num_bits-bit strings of even and of odd
    parity, each ascending, in np.kron's order."""
    odd = (_bit_counts(num_bits) & 1).astype(bool)
    columns = (np.flatnonzero(~odd), np.flatnonzero(odd))
    for c in columns:
        c.flags.writeable = False
    return columns


@functools.lru_cache(maxsize=None)
def _parity_positions(num_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only: for the even and for the odd strings, the index in
    `_factor_products` of each entry of the tensor power's columns of that
    parity, rows and columns in np.kron's order."""
    positions = _kron_positions(num_bits)
    split = tuple(positions[:, columns] for columns in _parity_columns(num_bits))
    for p in split:
        p.flags.writeable = False
    return split


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
    matrix [psi_0 psi_1], in np.kron's order; each parity's columns are
    gathered from the flat factor products through cached indices, and
    the unit norm is checked with one dot per array.
    """
    # the cached pair, column b encoding bit b; its amplitudes are real
    products = _factor_products(encoding_amps(inst.theta).T.real, inst.two_k)
    scale = 2.0 ** (-(inst.two_k - 1) / 2)
    amps = tuple(products.take(positions) for positions in _parity_positions(inst.two_k))
    for a in amps:
        a *= scale
        flat = a.ravel()
        if abs(math.sqrt(flat @ flat) - 1.0) > CONSTRUCTION_ATOL:
            raise ValueError("parity purification does not have unit norm")
    return amps


@functools.lru_cache(maxsize=None)
def nogo_cheating_unitary(two_k: int) -> np.ndarray:
    """The committer's optimal ancilla rotation for 2k = two_k qubits, the
    same at every theta; read-only.

    It maps the ancilla of the even-parity purification (columns: the even
    strings, as in `nogo_purifications`) onto that of the odd one (rows:
    the odd strings), acting by left multiplication of the transposed
    purification. Entry (x, y) of the cross-Gram matrix A_0^T A_1 is
    2**-(N-1) cos(theta)**d(x, y), a function of the Hamming distance
    alone, so the Walsh-Hadamard characters chi_w diagonalise it. On the
    even strings chi_w and chi_wbar agree (wbar = w xor 1...1), on the odd
    ones they are opposite; so over the words w of first bit 0, the
    normalised restrictions e_w (even) and f_w (odd) are two orthonormal
    bases, and A_0^T A_1 = sum_w (a_h - b_h) e_w f_w^T with h = |w| (see
    `nogo_fidelity_gap`). W = sum_w sign(a_h - b_h) f_w e_w^T attains the
    sum of the |a_h - b_h|, the fidelity (Uhlmann), and a_h >= b_h exactly
    when h <= N/2, at every theta. Since chi_w(x) chi_w(y) = chi_w(x xor y),
    entry (y, x) of W is a kernel of x xor y; its entries are dyadic, so W
    is orthogonal to the last bit.
    """
    half = 2 ** (two_k - 1)
    words = np.arange(2 * half)
    counts = _bit_counts(two_k)
    # the characters of the words of first bit 0, one row each
    characters = 1.0 - 2.0 * (counts[words[:half, np.newaxis] & words] & 1)
    signs = np.where(2 * counts[:half] <= two_k, 1.0, -1.0)
    kernel = signs @ characters / half
    even, odd = _parity_columns(two_k)
    unitary = kernel[odd[:, np.newaxis] ^ even]
    unitary.flags.writeable = False
    return unitary


def nogo_fidelity_gap(two_k: int, theta: float) -> tuple[float, float]:
    """The fidelity F of the two parity states of two_k = N coded qubits,
    and the gap g = 1 - F, for any even N.

    The singular values of the cross-Gram matrix are |a_h - b_h| with
    a_h = c**(2(N-h)) s**(2h), b_h = c**(2h) s**(2(N-h)), c = cos(theta/2),
    s = sin(theta/2), each C(N-1, h) times (`nogo_cheating_unitary`).
    Pairing h with N - h, and since sum_h C(N, h) a_h = 1,

        F = sum_{h < N/2} C(N, h) a_h (1 - tan(theta/2)**(2(N-2h))),
        g = sum_{h < N/2} 2 C(N, h) b_h + C(N, N/2) a_{N/2},

    both sums of non-negative terms, so neither is formed as a difference
    of the other from 1. Each term is a product of the exact C(N, h) and
    two powers, kept as a mantissa and a binary exponent so that none
    overflows or underflows; the terms are summed relative to the largest.
    The rounding of c and s, raised to the 2N-th power, bounds what either
    can reach (a few ulp at 2k <= 10, about 1e-14 at 2k = 200); F is
    capped at 1.
    """
    _check_parity_instance(two_k, theta)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    if s == 0.0:
        # one coding state: both commitments are the same pure state
        return 1.0, 0.0
    log_tan = math.log(math.tan(theta / 2))
    f_terms, g_terms = [], []
    for h in range(two_k // 2):
        comb = math.comb(two_k, h)
        a, a_exp = _binary_term(comb, c, 2 * (two_k - h), s, 2 * h)
        b, b_exp = _binary_term(comb, c, 2 * h, s, 2 * (two_k - h))
        f_terms.append((a * -math.expm1(2 * (two_k - 2 * h) * log_tan), a_exp))
        g_terms.append((2 * b, b_exp))
    g_terms.append(_binary_term(math.comb(two_k, two_k // 2), c, two_k, s, two_k))
    return min(1.0, _binary_sum(f_terms)), _binary_sum(g_terms)


# A term of the closed form as (m, e), the value m * 2**e with m of order
# one (a mantissa in [1/2, 1), or a product of a few): wide enough for any
# C(N, h) and any power of a coding amplitude, where a float would overflow
# or underflow.


def _binary_term(count: int, c: float, i: int, s: float, j: int) -> tuple[float, int]:
    """count * c**i * s**j as (m, e), for a positive integer count and
    positive c and s; count's mantissa is correctly rounded."""
    e = count.bit_length()
    (cm, ce), (sm, se) = _binary_power(c, i), _binary_power(s, j)
    return count / (1 << e) * cm * sm, e + ce + se


def _binary_power(x: float, k: int) -> tuple[float, int]:
    """x**k for x > 0 as (m, e). The mantissa of x is at least 1/2, so its
    powers up to the 512th stay normal: longer powers go in such steps."""
    m, e = math.frexp(x)
    out_m, out_e = 1.0, e * k
    while k:
        step = min(k, 512)
        out_m, shift = math.frexp(out_m * m**step)
        out_e += shift
        k -= step
    return out_m, out_e


def _binary_sum(terms: list[tuple[float, int]]) -> float:
    """The sum of the (m, e) terms, scaled by the largest exponent."""
    top = max(e for _, e in terms)
    return math.ldexp(math.fsum(math.ldexp(m, e - top) for m, e in terms), top)


def uhlmann_overlap(amps0: np.ndarray, amps1: np.ndarray, unitary: np.ndarray) -> float:
    """|<purification1 | (I x U) purification0>|, the ancilla rotated by U."""
    return float(abs(np.vdot(amps1.T, unitary @ amps0.T)))


def nogo_cheat_report(inst: NoGoInstance) -> CheatReport:
    """The closed-form fidelity and detection g(2 - g), beside the overlap
    the fixed rotation attains on the committer's dense purifications; the
    report refuses an overlap off the closed form."""
    amps0, amps1 = nogo_purifications(inst)
    f, gap = nogo_fidelity_gap(inst.two_k, inst.theta)
    overlap = uhlmann_overlap(amps0, amps1, nogo_cheating_unitary(inst.two_k))
    return CheatReport(fidelity=f, achieved_overlap=overlap, detection_probability=gap * (2 - gap))


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
    # the two low bits of a random byte are uniform on 0..3: one byte per
    # cell, and each of the kernel's four cell comparisons reads one byte
    cells = (np.frombuffer(rng.gen.bytes(trials * n), np.uint8) & 3).reshape(trials, n)
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
    later declares; every qubit gets a fresh uniform blinding angle a. The
    copy dephases the blinded qubit cos a|0> + sin a|1> in the standard
    basis, so once encoded with bit r and turned back by a it lands on the
    perp element of basis x with probability

        1/2 (1 - cos 2a cos(pi/2 (r - x) - 2a)).

    The conclusive outcome in basis x decodes x xor 1, so it contradicts r
    only when x = r, where that is 1/2 sin^2 2a: the uniform passes the
    running sum 1/2 (1 + cos^2 2a) of the other outcome, as in
    `passed_sums`. Returns the (trials, n) detection grid.
    """
    if n < 1 or trials < 1:
        raise ValueError("need a positive qubit count and trial count")
    size = trials * n
    alphas = blinding_angles(rng, size)
    r = rng.bits(size)
    x, u = honest_draws(rng, size)
    detected = (x == r) & (u >= (1.0 + np.cos(2 * alphas) ** 2) / 2)
    return detected.reshape(trials, n)


def p4_probe_detection_probability(alphas) -> np.ndarray:
    """Exact per-qubit detection of the copy probe at each blinding angle a:
    the sampled path's 1/2 sin^2 2a at x = r (`probe_attack_p4`), averaged
    over the uniform r and basis bit x, 1/4 sin^2 2a."""
    return np.sin(2 * np.asarray(alphas, dtype=np.float64)) ** 2 / 4


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
