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

import numpy as np

from .qsim import (
    ProjectiveBasis,
    RngStream,
    born_probabilities,
    make_nonorthogonal_pair,
    passed_sums,
    perp,
    povm_probabilities,
    running_sums,
    usd_povm,
)
from .qsim.states import ENCODE_ANGLE, check_angle

# Not used below (the receivers sample cached tables), but bench/tracing.py
# wraps the per-state samplers under these names here.
from .qsim import measure_povm, measure_projective  # noqa: F401

HONEST = "honest"
USD = "usd"


@dataclass(frozen=True)
class RotConfig:
    n: int
    theta: float = ENCODE_ANGLE

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        check_angle(self.theta)

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


@dataclass(frozen=True)
class ReceiverRecord:
    """The conclusive (position, value) pairs and the decoded row.

    Positions are 1-based and strictly increasing; a value is the decoded
    sender bit, which for both receiver strategies is never wrong.
    `decoded` holds the same as a read-only int8 row, -1 where inconclusive.
    """

    strategy: str
    conclusive: tuple[tuple[int, int], ...]
    decoded: np.ndarray = field(repr=False, compare=False)


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
    return ProjectiveBasis(states=(psi0, perp(psi0))), ProjectiveBasis(states=(psi1, perp(psi1)))


# decoded bit of each honest outcome, by basis x and outcome index: the perp
# outcome decodes x xor 1, the other one nothing (-1)
HONEST_DECODE = np.array([[-1, 1], [-1, 0]], dtype=np.int8)
HONEST_DECODE.flags.writeable = False

# decoded bit of each usd_povm outcome: conclusive 0, conclusive 1, inconclusive
_USD_DECODED = np.array([0, 1, -1], dtype=np.int8)
_USD_DECODED.flags.writeable = False


def honest_draws(rng: RngStream, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The honest receiver's draws for `count` qubits, in the order he makes
    them: every basis bit, then one uniform per qubit."""
    return rng.bits(count), rng.gen.random(count)


@functools.lru_cache(maxsize=None)
def born_table(theta: float, strategy: str) -> np.ndarray:
    """The plain channel's outcome probabilities at one angle, read-only.

    HONEST: row 2*bit + x measures the state encoding `bit` in basis x, with
    column 1 the conclusive outcome. USD: row `bit` is that state
    under usd_povm(theta). Each row is one call of the single-state Born
    rule; a receiver gathers one row per qubit from here instead of running
    the Born rule once per qubit.
    """
    if strategy == HONEST:
        bases = measurement_bases(theta)
        pair = make_nonorthogonal_pair(theta)
        rows = [born_probabilities(s, bases[x]) for s in pair for x in (0, 1)]
    elif strategy == USD:
        povm = usd_povm(theta)
        rows = [povm_probabilities(s, povm) for s in make_nonorthogonal_pair(theta)]
    else:
        raise ValueError(f"unknown receiver strategy {strategy!r}")
    table = np.array(rows)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def born_sums(theta: float, strategy: str) -> np.ndarray:
    """The `running_sums` of `born_table(theta, strategy)`, built once: the
    columns a receiver gathers and samples its outcomes from."""
    return running_sums(born_table(theta, strategy))


def sample_table(
    sums: np.ndarray, decode: np.ndarray, bits: np.ndarray, x: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """The one channel interface: qubit i, sent for bits[i] and measured in
    basis x[i], samples column 2 * bits[i] + x[i] of a cached `running_sums`
    table with uniform u[i], and outcome o decodes to decode[x[i], o]: the
    read-only int8 row returned, -1 where nothing was learned."""
    if len(x) != len(bits) or len(u) != len(bits):
        raise ValueError("need one basis bit and one uniform per qubit")
    decoded = decode[x, passed_sums(sums[:, 2 * bits + x], u)]
    decoded.flags.writeable = False
    return decoded


def honest_channel(bits: np.ndarray, x: np.ndarray, u: np.ndarray, theta: float) -> np.ndarray:
    """The plain channel at angle theta and the honest receiver, sampled from
    `born_sums(theta, HONEST)` with the draws of `honest_draws`."""
    return sample_table(born_sums(theta, HONEST), HONEST_DECODE, bits, x, u)


def run_rot(
    config: RotConfig, strategy: str, rng: RngStream
) -> tuple[SenderRecord, ReceiverRecord]:
    """One sender pass followed by one receiver pass over the n qubits: the
    sender's bits are drawn before any receiver draw, then each receiver
    samples its n outcomes from the `born_sums` columns its qubits select.

    Both records hold the drawn int8 rows themselves, made read-only, and
    the conclusive pairs are read off the decoded row in one pass.
    """
    sums = born_sums(config.theta, strategy)
    bits = rng.bits(config.n)
    if strategy == HONEST:
        x, u = honest_draws(rng, config.n)
        decoded = honest_channel(bits, x, u, config.theta)
    else:
        decoded = _USD_DECODED[passed_sums(sums[:, bits], rng.gen.random(config.n))]
    bits.flags.writeable = decoded.flags.writeable = False
    pairs = tuple([(pos, val) for pos, val in enumerate(decoded.tolist(), start=1) if val >= 0])
    return SenderRecord(bits), ReceiverRecord(strategy, pairs, decoded)
