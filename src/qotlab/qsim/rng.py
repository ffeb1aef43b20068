"""Reproducible random streams keyed by (master seed, stream index).

Every randomized routine in the package draws from an explicit RngStream.
Two streams built from the same pair produce identical draw sequences, and
streams with different indices are statistically independent, so per-trial
substreams make campaign results independent of execution order.
"""
from __future__ import annotations

import numpy as np

DEFAULT_SEED = 20230915
_INDEX_LIMIT = 2**32


def _check_index(index: int) -> int:
    # one 32-bit word per key entry keeps distinct key tuples distinct
    # inside SeedSequence, which splits larger integers into several words
    index = int(index)
    if not 0 <= index < _INDEX_LIMIT:
        raise ValueError("stream and substream indices must lie in [0, 2**32)")
    return index


def running_sums(probabilities: np.ndarray) -> np.ndarray:
    """The running sums an inverse-CDF draw compares its uniform against, for
    each row of an (N, K) probability array: all but the last, laid out
    (K - 1, N) and read-only, so a table channel gathers one column per row.

    A running sum is kept from falling below the one before it (a tiny
    negative table entry can make it dip); the first sum a uniform lies
    below stays the same one.
    """
    cum = np.maximum.accumulate(np.cumsum(probabilities, axis=1), axis=1)
    sums = np.ascontiguousarray(cum[:, :-1].T)
    sums.flags.writeable = False
    return sums


def passed_sums(sums: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The one sampling rule: outcome j of column i is the number of running
    sums in sums[:, i] (all but the last) that u[i] has passed, u >= sum.

    Row-wise that is the first index whose running sum exceeds u, or the last
    index if none does, as in `RngStream.choice_index`.
    """
    idx = np.zeros(len(u), dtype=np.intp)
    for row in sums:
        idx += u >= row
    return idx


class RngStream:
    """A numpy Generator bound to a (master_seed, stream_index) pair.

    The generator is seeded with a SeedSequence whose spawn key is
    (stream_index,) followed by the indices of any substream() calls that
    led here, so every path of indices names its own stream.
    """

    def __init__(self, master_seed: int, stream_index: int):
        if master_seed < 0 or master_seed >= 2**64:
            raise ValueError("master_seed must fit in 64 bits")
        self._bind(int(master_seed), _check_index(stream_index), ())

    def _bind(self, master_seed: int, stream_index: int, path: tuple[int, ...]) -> "RngStream":
        self.master_seed = master_seed
        self.stream_index = stream_index
        self._path = path
        seq = np.random.SeedSequence(master_seed, spawn_key=(stream_index, *path))
        self.gen = np.random.default_rng(seq)
        return self

    def substream(self, index: int) -> "RngStream":
        """Derive an independent stream; index 0 is not the parent stream.
        The parent's seed and path were checked when it was built, so only
        the new index is."""
        path = (*self._path, _check_index(index))
        return object.__new__(RngStream)._bind(self.master_seed, self.stream_index, path)

    def bit(self) -> int:
        return int(self.gen.integers(0, 2))

    def bits(self, n: int) -> np.ndarray:
        return self.gen.integers(0, 2, size=n, dtype=np.int8)

    def choice_index(self, probabilities: np.ndarray) -> int:
        """Sample an index from a probability vector (assumed to sum to 1)."""
        u = self.gen.random()
        acc = 0.0
        for i, p in enumerate(probabilities):
            acc += p
            if u < acc:
                return i
        return len(probabilities) - 1

    def __repr__(self) -> str:
        path = f", path={self._path}" if self._path else ""
        return f"RngStream(master_seed={self.master_seed}, stream_index={self.stream_index}{path})"
