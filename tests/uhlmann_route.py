"""The SVD route to the Uhlmann rotation, the reference for the no-go report.

For any two purifications, one singular value decomposition of their
cross-Gram matrix gives the fidelity (the sum of its singular values) and
an ancilla unitary built from its factors that attains it. The report
instead reads a fixed rotation built in the Walsh-Hadamard basis
(`attacks.nogo_cheating_unitary`) and a closed-form fidelity; the tests
hold both to this route.
"""

import numpy as np


def svd_cheating_unitary(amps0: np.ndarray, amps1: np.ndarray) -> tuple[np.ndarray, float]:
    """Ancilla unitary steering purification amps0 onto amps1, and the
    fidelity it attains.

    Each purification holds the system index by rows and the ancilla index
    by columns (`nogo_purifications`, or a state's `purification_amps`).
    The unitary acts on the ancilla by left multiplication of the
    transposed purifications, as `uhlmann_overlap` applies it.
    """
    if amps0.shape != amps1.shape:
        raise ValueError("the two purifications must share one shape")
    cross_gram = amps0.T @ amps1.conj()
    u, singular_values, vh = np.linalg.svd(cross_gram)
    return vh.conj().T @ u.conj().T, float(min(1.0, singular_values.sum()))
