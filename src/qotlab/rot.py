"""Random-bit oblivious transfer over a pair of non-orthogonal qubit states.

The sender draws a uniform bit string r and transmits qubit i as state
Psi_{r_i}, where <Psi_0|Psi_1> = cos(theta). The honest receiver measures
each qubit in one of the two bases {Psi_x, Psi_x perp}, chosen uniformly:
landing on a perp element identifies the sent bit as x xor 1 with certainty
and counts as conclusive, which happens for half the basis choices with
probability sin(theta)^2, i.e. at rate 1/4 for the default theta = pi/4.
A receiver running unambiguous state discrimination instead is conclusive
at the optimal rate 1 - cos(theta), still without errors.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qsim import (
    CONCLUSIVE_0,
    CONCLUSIVE_1,
    ProjectiveBasis,
    RngStream,
    batch_probabilities,
    make_nonorthogonal_pair,
    perp,
    usd_povm,
)

# Not used below (the receivers sample through the batched kernel), but
# bench/tracing.py wraps the per-state engine under these names here.
from .qsim import measure_povm, measure_projective  # noqa: F401

HONEST = "honest"
USD = "usd"


@dataclass(frozen=True)
class RotConfig:
    n: int
    theta: float = float(np.pi / 4)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 < self.theta <= np.pi / 2:
            raise ValueError("theta must lie in (0, pi/2]")

    @property
    def honest_conclusive_rate(self) -> float:
        return 0.5 * float(np.sin(self.theta)) ** 2

    @property
    def usd_conclusive_rate(self) -> float:
        return 1.0 - float(np.cos(self.theta))


@dataclass(frozen=True)
class SenderRecord:
    """The sender's only secret: the transmitted bit string."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.int8).copy()
        if bits.ndim != 1 or bits.size < 1:
            raise ValueError("bits must be a nonempty vector")
        if np.any((bits != 0) & (bits != 1)):
            raise ValueError("bits must be 0 or 1")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)


@dataclass(frozen=True)
class ReceiverRecord:
    """Per-qubit basis bits plus the conclusive (position, value) pairs.

    basis_choices holds the basis bit x of each qubit, or -1 for the
    discriminating receiver, which chooses no basis. Positions are 1-based
    and strictly increasing; a value is the decoded sender bit, which for
    both receiver strategies is never wrong.
    """

    strategy: str
    basis_choices: np.ndarray
    conclusive: tuple[tuple[int, int], ...]

    def __post_init__(self):
        basis = np.array(self.basis_choices, dtype=np.int8)
        basis.flags.writeable = False
        object.__setattr__(self, "basis_choices", basis)
        n = len(basis)
        last = 0
        for pos, val in self.conclusive:
            if not last < pos <= n:
                raise ValueError("conclusive positions must be increasing and in [1, n]")
            if val not in (0, 1):
                raise ValueError("conclusive values must be bits")
            last = pos

    @classmethod
    def from_decoded(
        cls, strategy: str, basis_choices: np.ndarray, decoded: np.ndarray
    ) -> "ReceiverRecord":
        """Record from one decoded bit per qubit, -1 where inconclusive."""
        pos = np.flatnonzero(decoded >= 0)
        conclusive = tuple(zip((pos + 1).tolist(), decoded[pos].tolist()))
        return cls(strategy=strategy, basis_choices=basis_choices, conclusive=conclusive)

    @property
    def conclusive_positions(self) -> tuple[int, ...]:
        return tuple(pos for pos, _ in self.conclusive)

    def conclusive_map(self) -> dict[int, int]:
        return {pos: val for pos, val in self.conclusive}


@functools.lru_cache(maxsize=None)
def encoding_amps(theta: float) -> np.ndarray:
    """The coding pair as a read-only (2, 2) array, row b encoding bit b."""
    amps = np.stack([s.amps for s in make_nonorthogonal_pair(theta)])
    amps.flags.writeable = False
    return amps


@functools.lru_cache(maxsize=None)
def measurement_bases(theta: float) -> tuple[ProjectiveBasis, ProjectiveBasis]:
    """Basis x = {Psi_x, Psi_x perp}; the perp outcome decodes the bit x xor 1."""
    psi0, psi1 = make_nonorthogonal_pair(theta)
    b0 = ProjectiveBasis(states=(psi0, perp(psi0)), labels=("psi", "perp"))
    b1 = ProjectiveBasis(states=(psi1, perp(psi1)), labels=("psi", "perp"))
    return b0, b1


# position of the perp outcome in each of measurement_bases
PERP_INDEX = 1


def alice_send(config: RotConfig, rng: RngStream) -> tuple[SenderRecord, np.ndarray]:
    """Draw the bit string and produce the qubits, one amplitude row each,
    before any receiver action; nothing the receiver later does can reach
    back into this record."""
    bits = rng.bits(config.n)
    return SenderRecord(bits=bits), encoding_amps(config.theta)[bits]


def honest_probabilities(amps: np.ndarray, theta: float, x: np.ndarray) -> np.ndarray:
    """The Born step of the honest measurement: row i's outcome probabilities
    in basis x[i] = {Psi_x, Psi_x perp}, column PERP_INDEX the conclusive
    outcome, which decodes the bit x xor 1. A row of several qubits is
    measured on qubit 0 with the rest traced out.
    """
    qubits = (0,) if amps.shape[1] > 2 else None
    return batch_probabilities(amps, measurement_bases(theta), choice=x, qubits=qubits)


def honest_outcomes(amps: np.ndarray, theta: float, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Basis bits and decoded bits of the honest measurement of each row.

    Row i is measured in a uniform basis x[i] by `honest_probabilities`; the
    perp outcome decodes the bit x xor 1, the other one decodes to -1.
    """
    x = rng.bits(len(amps))
    probs = honest_probabilities(amps, theta, x)
    return x, np.where(rng.choice_indices(probs) == PERP_INDEX, x ^ 1, -1)


def bob_measure_honest(amps: np.ndarray, theta: float, rng: RngStream) -> ReceiverRecord:
    return ReceiverRecord.from_decoded(HONEST, *honest_outcomes(amps, theta, rng))


# outcome index of usd_povm -> decoded bit
_USD_VALUES = {CONCLUSIVE_0: 0, CONCLUSIVE_1: 1}


def bob_measure_usd(amps: np.ndarray, theta: float, rng: RngStream) -> ReceiverRecord:
    povm = usd_povm(theta)
    values = np.array([_USD_VALUES.get(label, -1) for label in povm.labels])
    decoded = values[rng.choice_indices(batch_probabilities(amps, povm))]
    return ReceiverRecord.from_decoded(USD, np.full(len(amps), -1), decoded)


def run_rot(
    config: RotConfig, strategy: str, rng: RngStream
) -> tuple[SenderRecord, ReceiverRecord]:
    """One sender pass followed by one receiver pass over the n qubits."""
    sender, amps = alice_send(config, rng)
    if strategy == HONEST:
        receiver = bob_measure_honest(amps, config.theta, rng)
    elif strategy == USD:
        receiver = bob_measure_usd(amps, config.theta, rng)
    else:
        raise ValueError(f"unknown receiver strategy {strategy!r}")
    return sender, receiver
