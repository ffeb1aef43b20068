"""The rotation route of the blinded receiver, the reference for its table.

Each returned qubit is one amplitude row, turned back by its blinding angle
and put through the honest Born step in its basis, one row at a time. The
P4 and P5 samplers read the plain channel's cached table at pi/4 instead,
since an unblinded coding state is the plain pair; the tests hold them to
this route draw for draw.
"""

import numpy as np

from qotlab.bitcommit import ENCODE_ANGLE
from qotlab.qsim import inverse_cdf, rotate_rows
from qotlab.rot import PERP_INDEX, honest_probabilities


def unblind_and_measure(amps, alphas, x, u) -> np.ndarray:
    """Decoded bits of (N, 2) blinded rows: row i turned back by alphas[i]
    and measured in basis x[i] with uniform u[i]. The perp outcome decodes
    x xor 1, the other one -1."""
    unblinded = rotate_rows(amps, -np.asarray(alphas))
    outcomes = inverse_cdf(honest_probabilities(unblinded, ENCODE_ANGLE, x), u)
    return np.where(outcomes == PERP_INDEX, x ^ 1, -1).astype(np.int8)
