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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .qsim import (
    ProjectiveBasis,
    RngStream,
    batch_probabilities,
    make_nonorthogonal_pair,
    passed_sums,
    perp,
    running_sums,
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


def _unchecked(cls, **fields):
    """A frozen record of `cls` from fields that already passed its checks,
    such as rows of a checked pass, without copying or checking them again."""
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


@dataclass(frozen=True)
class SenderRecord:
    """The sender's only secret: the transmitted bit string."""

    bits: np.ndarray

    def __post_init__(self):
        bits = np.array(self.bits, dtype=np.int8)
        if bits.ndim != 1 or bits.size < 1:
            raise ValueError("bits must be a nonempty vector")
        if np.count_nonzero(bits & -2):
            raise ValueError("bits must be 0 or 1")
        bits.flags.writeable = False
        object.__setattr__(self, "bits", bits)


@dataclass(frozen=True)
class ReceiverRecord:
    """Per-qubit basis bits plus the conclusive (position, value) pairs.

    basis_choices holds the basis bit x of each qubit, or -1 for the
    discriminating receiver, which chooses no basis. Positions are 1-based
    and strictly increasing; a value is the decoded sender bit, which for
    both receiver strategies is never wrong. `decoded` holds the same as a
    read-only int8 row, -1 where inconclusive.
    """

    strategy: str
    basis_choices: np.ndarray
    conclusive: tuple[tuple[int, int], ...]
    decoded: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        basis = np.array(self.basis_choices, dtype=np.int8)
        basis.flags.writeable = False
        object.__setattr__(self, "basis_choices", basis)
        # positions strictly increase within 1..n, and every value is a bit
        decoded = np.full(len(basis), -1, dtype=np.int8)
        last = 0
        for pos, val in self.conclusive:
            if not last < pos <= len(basis):
                raise ValueError("conclusive positions must be increasing and in [1, n]")
            if val not in (0, 1):
                raise ValueError("conclusive values must be bits")
            decoded[pos - 1] = val
            last = pos
        decoded.flags.writeable = False
        object.__setattr__(self, "decoded", decoded)

    @classmethod
    def from_decoded(
        cls, strategy: str, basis_choices: np.ndarray, decoded: np.ndarray
    ) -> "ReceiverRecord":
        """Record from one decoded bit per qubit, -1 where inconclusive.

        Positions read off the decoded vector increase and lie in 1..n by
        construction, so only its values are checked, in one pass.
        """
        basis = np.array(basis_choices, dtype=np.int8)
        basis.flags.writeable = False
        decoded = np.asarray(decoded)
        if decoded.shape != basis.shape or basis.ndim != 1:
            raise ValueError("need one decoded value per basis choice")
        pos = np.flatnonzero(decoded >= 0)
        values = decoded[pos]
        if np.count_nonzero(values & -2):
            raise ValueError("conclusive values must be bits")
        row = decoded.astype(np.int8)
        row.flags.writeable = False
        pairs = tuple(zip((pos + 1).tolist(), values.tolist()))
        return _unchecked(cls, strategy=strategy, basis_choices=basis, conclusive=pairs, decoded=row)

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

# decoded bit of each honest outcome, by basis x and outcome index: the perp
# outcome decodes x xor 1, the other one nothing (-1)
HONEST_DECODE = np.array([[-1, 1], [-1, 0]], dtype=np.int8)
HONEST_DECODE.flags.writeable = False

# decoded bit of each usd_povm outcome: conclusive-0, conclusive-1, inconclusive
_USD_DECODED = np.array([0, 1, -1])


def honest_probabilities(amps: np.ndarray, theta: float, x: np.ndarray) -> np.ndarray:
    """The Born step of the honest measurement: row i's outcome probabilities
    in basis x[i] = {Psi_x, Psi_x perp}, column PERP_INDEX the conclusive
    outcome, which decodes the bit x xor 1. A row of several qubits is
    measured on qubit 0 with the rest traced out.
    """
    qubits = (0,) if amps.shape[1] > 2 else None
    return batch_probabilities(amps, measurement_bases(theta), choice=x, qubits=qubits)


def honest_draws(rng: RngStream, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The honest receiver's draws for `count` qubits, in the order he makes
    them: every basis bit, then one uniform per qubit."""
    return rng.bits(count), rng.gen.random(count)


@functools.lru_cache(maxsize=None)
def born_table(theta: float, strategy: str) -> np.ndarray:
    """The plain channel's outcome probabilities at one angle, read-only.

    HONEST: row 2*bit + x measures the state encoding `bit` in basis x, as
    `honest_probabilities` does. USD: row `bit` is that state under
    usd_povm(theta). A receiver gathers one row per qubit from here instead
    of running the Born rule once per qubit.
    """
    amps = encoding_amps(theta)
    if strategy == HONEST:
        table = honest_probabilities(amps[[0, 0, 1, 1]], theta, np.array([0, 1, 0, 1]))
    elif strategy == USD:
        table = batch_probabilities(amps, usd_povm(theta))
    else:
        raise ValueError(f"unknown receiver strategy {strategy!r}")
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def born_sums(theta: float, strategy: str) -> np.ndarray:
    """The `running_sums` of `born_table(theta, strategy)`, built once: the
    columns a receiver gathers and samples its outcomes from."""
    return running_sums(born_table(theta, strategy))


class ChannelPass(NamedTuple):
    """A receiver's pass over a channel: each qubit's basis bit and the
    read-only int8 row of decoded bits, -1 where nothing was learned."""

    basis: np.ndarray
    decoded: np.ndarray


def sample_table(
    sums: np.ndarray, decode: np.ndarray, bits: np.ndarray, x: np.ndarray, u: np.ndarray
) -> ChannelPass:
    """The one channel interface: qubit i, sent for bits[i] and measured in
    basis x[i], samples column 2 * bits[i] + x[i] of a cached `running_sums`
    table with uniform u[i], and outcome o decodes to decode[x[i], o]."""
    if len(x) != len(bits) or len(u) != len(bits):
        raise ValueError("need one basis bit and one uniform per qubit")
    decoded = decode[x, passed_sums(sums[:, 2 * bits + x], u)]
    decoded.flags.writeable = False
    return ChannelPass(x, decoded)


def honest_channel(bits: np.ndarray, x: np.ndarray, u: np.ndarray, theta: float) -> ChannelPass:
    """The plain channel at angle theta and the honest receiver, sampled from
    `born_sums(theta, HONEST)` with the draws of `honest_draws`."""
    return sample_table(born_sums(theta, HONEST), HONEST_DECODE, bits, x, u)


def run_rot(
    config: RotConfig, strategy: str, rng: RngStream
) -> tuple[SenderRecord, ReceiverRecord]:
    """One sender pass followed by one receiver pass over the n qubits: the
    sender's bits are drawn before any receiver draw, then each receiver
    samples its n outcomes from the `born_sums` columns its qubits select."""
    sums = born_sums(config.theta, strategy)
    bits = rng.bits(config.n)
    if strategy == HONEST:
        x, decoded = honest_channel(bits, *honest_draws(rng, config.n), config.theta)
    else:
        x = np.full(config.n, -1)
        decoded = _USD_DECODED[passed_sums(sums[:, bits], rng.gen.random(config.n))]
    return SenderRecord(bits=bits), ReceiverRecord.from_decoded(strategy, x, decoded)
