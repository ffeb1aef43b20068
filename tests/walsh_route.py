"""The brute-force Walsh route to a Boolean function's correlation
immunity, the reference for the direct commitment's string function.

The direct commitment hides its bit through the function of each string;
parity is immune of the largest possible order, arity - 1. This route
checks an immunity order by summing every Walsh coefficient, 4**arity
terms, so it stays with the tests and not in the package.
"""

from typing import Callable

import numpy as np


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
