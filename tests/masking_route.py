"""The checked masking route of the transfer, the reference for its tail.

The sender masks each message with the XOR of her sent bits over its
announced set, after checking the messages and the sets; the receiver
strips the mask from the ciphertext in its slot with its conclusive values
over I, after checking that it has all of them. `run_masked_transfer`
applies the same mask rule to sets it drew itself, so it checks only the
message bits; the tests hold it to this route.
"""

from typing import Iterable, Sequence

from qotlab.ot12 import mask


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
