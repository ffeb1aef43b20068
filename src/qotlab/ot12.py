"""One-out-of-two oblivious transfer built on the random-OT channel.

After the qubit phase the receiver announces an ordered pair of disjoint
index sets (X, Y), one of which is his fully conclusive set I and the other
a decoy J drawn from the positions he did not learn. The sender masks her two
messages with the XOR of her sent bits over X and over Y respectively; the
receiver can strip exactly the mask over I, so he learns the message in the
slot he pointed at and stays ignorant of the other one unless his conclusive
bits happen to cover J as well.

The module also computes the two exact security tails: p1, the probability
that an honest receiver gets at least k conclusive bits and the run proceeds,
and p2, the probability that an unambiguous-discrimination receiver gets at
least 2k and could decode both messages.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .qsim import RngStream
from .rot import HONEST, USD, ReceiverRecord, RotConfig, SenderRecord, run_rot

DEFAULT_ALPHA = Fraction(1, 16)
BASE_RATE = Fraction(1, 4)

# two-sided 95% normal quantile, used for Wilson intervals
_WILSON_Z = 1.959963984540054


@functools.lru_cache(maxsize=None)
def _margin(alpha: Fraction) -> Fraction:
    """BASE_RATE - alpha, checked once per alpha."""
    alpha = Fraction(alpha)
    if not 0 < alpha < BASE_RATE:
        raise ValueError("alpha must lie strictly between 0 and the base rate")
    return BASE_RATE - alpha


def k_of(n: int, alpha: Fraction = DEFAULT_ALPHA) -> int:
    """floor((BASE_RATE - alpha) * n), computed exactly for rational inputs."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    margin = _margin(alpha)
    return n * margin.numerator // margin.denominator


def transfer_k(n: int, alpha: Fraction = DEFAULT_ALPHA) -> int:
    """k_of(n, alpha), refused when it is 0: empty announced sets leave both
    messages unmasked."""
    k = k_of(n, alpha)
    if k < 1:
        raise ValueError(f"n={n} gives k={k} announced positions; the transfer needs k >= 1")
    return k


@dataclass(frozen=True)
class IndexSets:
    """The receiver's announcement: I (conclusive), J (decoy), slot bit m.

    m = 0 announces (X, Y) = (I, J); m = 1 announces (J, I). Positions are
    1-based, each set is sorted, and the sets are disjoint.
    """

    i_set: tuple[int, ...]
    j_set: tuple[int, ...]
    m: int

    def __post_init__(self):
        if self.m not in (0, 1):
            raise ValueError("m must be a bit")
        for s in (self.i_set, self.j_set):
            if list(s) != sorted(set(s)):
                raise ValueError("index sets must be sorted without repeats")
        if len(self.i_set) != len(self.j_set):
            raise ValueError("index sets must have equal size")
        if set(self.i_set) & set(self.j_set):
            raise ValueError("index sets must be disjoint")

    def pick(self, first, second):
        """The slot rule: first when m = 0 (I announced first), else second.

        So X = pick(I, J), and the receiver's ciphertext is pick(c0, c1).
        """
        return first if self.m == 0 else second

    @property
    def x_set(self) -> tuple[int, ...]:
        return self.pick(self.i_set, self.j_set)

    @property
    def y_set(self) -> tuple[int, ...]:
        return self.pick(self.j_set, self.i_set)


@dataclass(frozen=True)
class SecurityEstimate:
    value: float


@dataclass(frozen=True)
class Ot12Transcript:
    """What one run produced; quantum data never leaves the run. An aborted
    run has no announcement, ciphertexts or received bit."""

    sender: SenderRecord
    receiver: ReceiverRecord
    sets: Optional[IndexSets]
    c0: Optional[int]
    c1: Optional[int]
    b_received: Optional[int]

    def __post_init__(self):
        missing = [v is None for v in (self.sets, self.c0, self.c1, self.b_received)]
        if any(missing) and not all(missing):
            raise ValueError("sets, ciphertexts and b_received are all set or all None")

    @property
    def aborted(self) -> bool:
        return self.sets is None

    @property
    def strategy(self) -> str:
        return self.receiver.strategy


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at 95%."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    z = _WILSON_Z
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    low = max(0.0, min(center - half, phat))
    high = min(1.0, max(center + half, phat))
    return low, high


# terms of a tail more than this far (in log) below its largest term, plus
# log(n + 1), are dropped: together they weigh less than e**-60 of the tail
TAIL_LOG_MARGIN = 60.0

_LN_2PI = math.log(2.0 * math.pi)


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n/e)**n), the Stirling series remainder."""
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * _LN_2PI
    nn = float(n) * n
    if n > 500:
        return (1 / 12 - 1 / 360 / nn) / n
    if n > 80:
        return (1 / 12 - (1 / 360 - 1 / 1260 / nn) / nn) / n
    if n > 35:
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / 1680 / nn) / nn) / nn) / n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: float, mean: float) -> float:
    """x log(x / mean) + mean - x, by a series where the terms would cancel."""
    if abs(x - mean) < 0.1 * (x + mean):
        v = (x - mean) / (x + mean)
        s = (x - mean) * v
        ej = 2.0 * x * v
        v *= v
        for j in range(1, 1000):
            ej *= v
            s_next = s + ej / (2 * j + 1)
            if s_next == s:
                break
            s = s_next
        return s
    return x * math.log(x / mean) + mean - x


def _log_pmf(n: int, j: int, p: float) -> float:
    """log P[Binomial(n, p) = j] in Loader's saddle-point form, which keeps
    full relative accuracy where the lgamma form cancels; 0 < p < 1."""
    if j == 0:
        return n * math.log1p(-p)
    if j == n:
        return n * math.log(p)
    lc = _stirlerr(n) - _stirlerr(j) - _stirlerr(n - j)
    lc -= _bd0(j, n * p) + _bd0(n - j, n * (1.0 - p))
    return lc - 0.5 * (_LN_2PI + math.log(j) + math.log1p(-j / n))


def _tail_window(n: int, p: float, threshold: int) -> tuple[int, int, int, float]:
    """(lo, top, hi, log pmf at top) for a tail with 0 < threshold <= n.

    top is the largest term in [threshold, n]; [lo, hi] holds every term
    whose log is within TAIL_LOG_MARGIN + log(n + 1) of it. The pmf is
    log-concave, so those terms form one interval; the at most n + 1 terms
    outside weigh less than e**-60 of the term at top.

    Each end is bracketed by bisection on the lgamma form of the log pmf,
    a fraction of the cost of a saddle-point call, and then confirmed by
    saddle-point calls at and next to it, stepping while the guess fails
    the cut or its outer neighbour clears it. The lgamma form only errs by
    rounding, so the ends are those of the saddle-point form. A tail makes
    one saddle-point call for top and two per end, plus one for each term
    by which that rounding misplaces an end: none for n up to about 10**9,
    tens at 10**12.
    """
    top = max(threshold, min(n, math.floor((n + 1) * p)))
    log_top = _log_pmf(n, top, p)
    cut = log_top - TAIL_LOG_MARGIN - math.log(n + 1)
    log_n_fact, log_p, log_q = math.lgamma(n + 1.0), math.log(p), math.log1p(-p)

    def clears_roughly(j: int) -> bool:
        return log_n_fact - math.lgamma(j + 1.0) - math.lgamma(n - j + 1.0) + j * log_p + (n - j) * log_q >= cut

    def edge(bound: int) -> int:
        # the farthest term from top towards `bound` that clears the cut
        step = 1 if bound > top else -1
        inside, outside = top, bound + step
        while abs(outside - inside) > 1:
            mid = (inside + outside) // 2
            if clears_roughly(mid):
                inside = mid
            else:
                outside = mid
        if inside != top and _log_pmf(n, inside, p) < cut:
            inside -= step
            while inside != top and _log_pmf(n, inside, p) < cut:
                inside -= step
            return inside
        while inside != bound and _log_pmf(n, inside + step, p) >= cut:
            inside += step
        return inside

    return edge(threshold), top, edge(n), log_top


def binomial_tail(n: int, p: float, threshold: int) -> float:
    """P[Binomial(n, p) >= threshold], summed over the window of terms that
    can matter, relative to the largest term so nothing underflows."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    if threshold <= 0:
        return 1.0
    if threshold > n:
        return 0.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    lo, top, hi, log_top = _tail_window(n, p, threshold)
    # log pmf(j + 1) - log pmf(j), for j from lo to hi - 1
    j = np.arange(lo, hi, dtype=np.float64)
    steps = np.log((n - j) / (j + 1)) + (math.log(p) - math.log1p(-p))
    logs = np.concatenate(([0.0], np.cumsum(steps)))
    total = math.exp(log_top) * float(np.sum(np.exp(logs - logs[top - lo])))
    # rounding in the log terms can push a near-certain tail past 1
    return min(1.0, max(0.0, total))


def choose_index_sets(
    decoded: Sequence[int],
    k: int,
    rng: RngStream,
    strategy: str = HONEST,
) -> Optional[IndexSets]:
    """Draw I from the conclusive positions of the receiver's decoded row
    (-1 where nothing was learned) and J from the rest; None = abort.

    The run aborts when fewer than k positions came out conclusive. The
    honest receiver draws J from the inconclusive positions, so he knows
    none of the bits under the other mask; only when fewer than k of those
    exist is J topped up from the conclusive leftovers. The discriminating
    receiver (strategy USD) swaps the roles: J is filled from leftover
    conclusive positions first, so that 2k conclusive bits make both masks
    known to him. The draws are I, then J, then the slot bit m.
    """
    conclusive = [p for p, v in enumerate(decoded, start=1) if v >= 0]
    if len(conclusive) < k:
        return None
    i_set = rng.subset(conclusive, k)
    taken = set(i_set)
    leftovers = [p for p in conclusive if p not in taken]
    unknown = [p for p, v in enumerate(decoded, start=1) if v < 0]
    first, second = (leftovers, unknown) if strategy == USD else (unknown, leftovers)
    if len(first) >= k:
        j_set = rng.subset(first, k)
    else:
        j_set = sorted(first + rng.subset(second, k - len(first)))
    return IndexSets(i_set=tuple(i_set), j_set=tuple(j_set), m=rng.bit())


def mask(values: Iterable[int]) -> int:
    """The mask rule: the XOR of the bits over a set. A ciphertext is its
    message XOR the mask over the message's announced set."""
    out = 0
    for v in values:
        out ^= v
    return out


def sender_encrypt(
    bits: Sequence[int], x_set: Sequence[int], y_set: Sequence[int], b0: int, b1: int
) -> tuple[int, int]:
    """Mask b0 with the sent bits over X and b1 with those over Y; `bits` is
    the sent string as a list of ints, position p at index p - 1."""
    if b0 not in (0, 1) or b1 not in (0, 1):
        raise ValueError("messages must be bits")
    if set(x_set) & set(y_set):
        raise ValueError("announced sets must be disjoint")
    positions = (*x_set, *y_set)
    if positions and not (1 <= min(positions) and max(positions) <= len(bits)):
        raise ValueError("announced position out of range")
    return b0 ^ mask([bits[p - 1] for p in x_set]), b1 ^ mask([bits[p - 1] for p in y_set])


def receiver_decrypt(c_m: int, values: Iterable[int]) -> int:
    """Strip the mask from the chosen ciphertext using conclusive values."""
    if c_m not in (0, 1):
        raise ValueError("ciphertext must be a bit")
    values = list(values)
    if not set(values) <= {0, 1}:
        raise ValueError("missing conclusive value over I")
    return c_m ^ mask(values)


class MaskedTransfer(NamedTuple):
    """What the classical tail produced: the announcement, both ciphertexts
    and the received bit, all None when the run aborted."""

    sets: Optional[IndexSets]
    c0: Optional[int]
    c1: Optional[int]
    b_received: Optional[int]

    @property
    def aborted(self) -> bool:
        return self.sets is None


_ABORTED = MaskedTransfer(None, None, None, None)


def run_masked_transfer(
    bits: Sequence[int],
    decoded: Sequence[int],
    n: int,
    k: int,
    b0: int,
    b1: int,
    rng: RngStream,
    strategy: str = HONEST,
) -> MaskedTransfer:
    """The classical tail of the protocol, applied to a finished qubit phase:
    the n sent bits and the receiver's decoded row, each as a list."""
    if len(bits) != n or len(decoded) != n:
        raise ValueError("need n sent bits and n decoded cells")
    sets = choose_index_sets(decoded, k, rng, strategy)
    if sets is None:
        return _ABORTED
    c0, c1 = sender_encrypt(bits, sets.x_set, sets.y_set, b0, b1)
    b_received = receiver_decrypt(sets.pick(c0, c1), [decoded[p - 1] for p in sets.i_set])
    return MaskedTransfer(sets, c0, c1, b_received)


def run_ot12(
    n: int,
    b0: int,
    b1: int,
    strategy: str,
    rng: RngStream,
    theta: float = float(np.pi / 4),
    alpha: Fraction = DEFAULT_ALPHA,
) -> Ot12Transcript:
    """One full run: qubit phase, announcement, masking, decryption."""
    config = RotConfig(n=n, theta=theta)
    k = transfer_k(n, alpha)
    sender, receiver = run_rot(config, strategy, rng)
    tail = run_masked_transfer(
        sender.bits.tolist(), receiver.decoded.tolist(), n, k, b0, b1, rng, strategy
    )
    return Ot12Transcript(sender, receiver, *tail)


def abort_rate_exact(n: int, rate: float, alpha: Fraction) -> float:
    """P[Binomial(n, rate) < k], the chance that fewer than k qubits come out
    conclusive and the run aborts, summed as the upper tail of the
    inconclusive count: 1 - P[... >= k] would round a tiny rate to 0 or eps."""
    return binomial_tail(n, 1.0 - rate, n - k_of(n, alpha) + 1)


def p1_exact(
    n: int, alpha: Fraction = DEFAULT_ALPHA, theta: float = float(np.pi / 4)
) -> SecurityEstimate:
    """Probability an honest receiver reaches k conclusive bits (no abort).

    Each qubit is conclusive at the honest rate sin(theta)**2 / 2, which is
    the base rate 1/4 of k_of only at theta = pi/4.
    """
    rate = RotConfig(n=n, theta=theta).honest_conclusive_rate
    value = binomial_tail(n, rate, k_of(n, alpha))
    return SecurityEstimate(value=value)


def p2_exact(
    n: int, alpha: Fraction = DEFAULT_ALPHA, theta: float = float(np.pi / 4)
) -> SecurityEstimate:
    """Probability a discrimination receiver reaches 2k and learns both bits."""
    rate = RotConfig(n=n, theta=theta).usd_conclusive_rate
    value = binomial_tail(n, rate, 2 * k_of(n, alpha))
    return SecurityEstimate(value=value)

