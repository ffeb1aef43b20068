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

    def pick(self, first, second):
        """The slot rule: first when m = 0 (I announced first), else second.

        So X = pick(I, J), and the receiver's ciphertext is pick(c0, c1).
        """
        return first if self.m == 0 else second

    @classmethod
    def from_slots(cls, x_set: tuple[int, ...], y_set: tuple[int, ...], m: int) -> "IndexSets":
        """The announcement read back from its slots. The slot rule only
        swaps the pair or not, so it undoes itself: I = pick(X, Y) and
        J = pick(Y, X)."""
        i_set, j_set = (x_set, y_set) if m == 0 else (y_set, x_set)
        return cls(i_set, j_set, m)

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
    whose log is within TAIL_LOG_MARGIN + log(n + 1) of it, and some below
    that cut. The at most n + 1 terms outside weigh less than e**-60 of the
    term at top.

    The ends come in closed form from the concavity of the log pmf f: its
    second difference at j, log(1 - (n + 1) / ((j + 1) (n - j + 1))), is at
    most -c for c = (n + 1) / ((x + 1) (n - x + 1)), x the point of a side
    nearest n / 2, since log(1 - y) <= -y and the product peaks at n / 2.
    With s the first difference at top towards that side,
    f(top +- d) <= f(top) - d |s| - c d (d - 1) / 2, and the side ends at
    the least d for which that drop exceeds the margin, a term kept though
    below the cut so that rounding shuts out none at it: one quadratic root
    a side, and one saddle-point call, for top.
    """
    top = max(threshold, min(n, math.floor((n + 1) * p)))
    log_top = _log_pmf(n, top, p)
    margin = TAIL_LOG_MARGIN + math.log(n + 1)
    log_odds = math.log(p) - math.log1p(-p)

    def reach(slope: float, nearest: float) -> int:
        # the least d with d slope + c d (d - 1) / 2 > margin, from the stable root
        c = (n + 1) / ((nearest + 1) * (n - nearest + 1))
        b = slope - c / 2
        return math.floor(2 * margin / (b + math.sqrt(b * b + 2 * c * margin))) + 1

    lo = hi = top
    if top < n:
        hi = min(n, top + reach(math.log((top + 1) / (n - top)) - log_odds, max(top, n / 2)))
    if top > threshold:
        lo = max(threshold, top - reach(math.log((n - top + 1) / top) + log_odds, min(top, n / 2)))
    return lo, top, hi, log_top


def binomial_tail(n: int, p: float, threshold: int) -> float:
    """P[Binomial(n, p) >= threshold], summed over `_tail_window`'s terms
    relative to the largest, so nothing underflows: one saddle-point call
    anchors that term and the others follow from it by the pmf's ratios."""
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
    # logs[i] = log pmf(lo + i) - log pmf(lo), summed from the steps
    # log pmf(j + 1) - log pmf(j) = log((n - j) / (j + 1)) + log(p / (1 - p)),
    # all in one buffer; below 2**53 every count is exact in a float
    logs = np.empty(hi - lo + 1)
    logs[0] = 0.0
    steps = logs[1:]
    j_next = np.arange(lo + 1, hi + 1, dtype=np.float64)
    np.subtract(n + 1, j_next, out=steps)
    np.divide(steps, j_next, out=steps)
    np.log(steps, out=steps)
    steps += math.log(p) - math.log1p(-p)
    np.cumsum(steps, out=steps)
    logs -= logs[top - lo]
    total = math.exp(log_top) * float(np.sum(np.exp(logs, out=logs)))
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

    The run aborts, drawing nothing, when fewer than k positions came out
    conclusive. Otherwise the announcement is one draw of n + 1 uniform
    keys: key p belongs to position p, and the slot bit m is key 0 >= 1/2.
    I is the k conclusive positions with the smallest keys, a uniform
    k-subset. The honest receiver's J is the first k of its unlearned
    positions by key, then its leftover conclusive positions by key, so it
    knows none of the bits under the other mask unless fewer than k
    positions went unlearned, and then the top-up is a uniform subset of
    the leftovers. The discriminating receiver (strategy USD) swaps the two
    groups, so that 2k conclusive bits make both masks known to it.
    """
    conclusive: list[int] = []
    unknown: list[int] = []
    for pos, cell in enumerate(decoded, start=1):
        (conclusive if cell >= 0 else unknown).append(pos)
    if len(conclusive) < k:
        return None
    keys = rng.gen.random(len(decoded) + 1).tolist()
    conclusive.sort(key=keys.__getitem__)
    unknown.sort(key=keys.__getitem__)
    leftovers = conclusive[k:]
    j_pool = leftovers + unknown if strategy == USD else unknown + leftovers
    i_set, j_set = tuple(sorted(conclusive[:k])), tuple(sorted(j_pool[:k]))
    return IndexSets(i_set, j_set, int(keys[0] >= 0.5))


def mask(values: Iterable[int]) -> int:
    """The mask rule: the XOR of the bits over a set. A ciphertext is its
    message XOR the mask over the message's announced set."""
    out = 0
    for v in values:
        out ^= v
    return out


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
    the n sent bits and the receiver's decoded row, each as a list.

    The sender masks b0 with her bits over X and b1 with those over Y; the
    receiver strips the mask over I from the ciphertext in its slot with
    its own decoded bits there, all conclusive since I was drawn from them.
    Only the messages come from outside the run, so only they are checked.
    """
    if len(bits) != n or len(decoded) != n:
        raise ValueError("need n sent bits and n decoded cells")
    if b0 not in (0, 1) or b1 not in (0, 1):
        raise ValueError("messages must be bits")
    sets = choose_index_sets(decoded, k, rng, strategy)
    if sets is None:
        return _ABORTED
    c0 = b0 ^ mask([bits[p - 1] for p in sets.x_set])
    c1 = b1 ^ mask([bits[p - 1] for p in sets.y_set])
    b_received = sets.pick(c0, c1) ^ mask([decoded[p - 1] for p in sets.i_set])
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

