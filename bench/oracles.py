"""Reference values computed apart from the program under test.

Nothing here imports qotlab. Closed-form rates come from `math`, binomial
tails from `scipy.stats.binom`, the probe-p3 detection probability from a
Born table built with numpy from the four Bell vectors, and the no-go
fidelity from the tensor-power form of the parity-class states with
`scipy.linalg.sqrtm`. scipy is imported inside the functions, so a workload
process that never checks a pooled or exact value does not pay for it.
"""
from __future__ import annotations

import math
import warnings

import numpy as np

THETA = math.pi / 4


def k_threshold(n: int) -> int:
    """The abort threshold floor(3n/16) of the transfer layer at alpha = 1/16."""
    return (3 * n) // 16


def honest_rate(theta: float = THETA) -> float:
    return 0.5 * math.sin(theta) ** 2


def usd_rate(theta: float = THETA) -> float:
    return 1.0 - math.cos(theta)


def tail_at_least(n, p: float, threshold):
    """P[Binomial(n, p) >= threshold]; n and threshold may be arrays."""
    from scipy.stats import binom

    return binom.sf(np.asarray(threshold) - 1, n, p)


def ot12_abort_rate(n: int, theta: float = THETA) -> float:
    """An honest run aborts when fewer than k of its n qubits are conclusive."""
    return 1.0 - float(tail_at_least(n, honest_rate(theta), k_threshold(n)))


def usd_learned_both_rate(n: int, theta: float = THETA) -> float:
    """The discriminating receiver learns both messages with 2k conclusive bits."""
    return float(tail_at_least(n, usd_rate(theta), 2 * k_threshold(n)))


def _bell_vectors() -> dict[str, np.ndarray]:
    s = 1.0 / math.sqrt(2.0)
    return {
        "phi+": np.array([s, 0.0, 0.0, s]),
        "phi-": np.array([s, 0.0, 0.0, -s]),
        "psi+": np.array([0.0, s, s, 0.0]),
        "psi-": np.array([0.0, s, -s, 0.0]),
    }


def probe_p3_detection() -> float:
    """Per-qubit detection probability of the copy probe on the pair channel.

    The receiver prepares phi- and sends the first qubit; the committer
    copies it onto a probe in the standard basis, then rotates it by pi/4
    for a 1. The receiver measures the pair in one of two bases, each
    chosen with probability 1/2: the Bell basis, or the four balanced sums
    of Bell vectors. An outcome that neither honest encoding can produce in
    that basis is a detection.
    """
    bell = _bell_vectors()
    s = 1.0 / math.sqrt(2.0)
    bases = (
        [bell["phi+"], bell["phi-"], bell["psi+"], bell["psi-"]],
        [
            s * (bell["phi-"] + bell["psi+"]),
            s * (bell["phi-"] - bell["psi+"]),
            s * (bell["phi+"] + bell["psi-"]),
            s * (bell["phi+"] - bell["psi-"]),
        ],
    )
    c, si = math.cos(math.pi / 4), math.sin(math.pi / 4)
    rot_on_first = np.kron(np.array([[c, -si], [si, c]]), np.eye(2))
    honest = (bell["phi-"], rot_on_first @ bell["phi-"])
    # pair plus probe, probe last: (|000> - |111>)/sqrt(2)
    probed = np.zeros(8)
    probed[0b000], probed[0b111] = s, -s
    probed = probed.reshape(4, 2)
    total = 0.0
    for r in (0, 1):
        pair_probe = rot_on_first @ probed if r else probed
        for basis in bases:
            matrix = np.array(basis)
            probs = np.sum(np.abs(matrix.conj() @ pair_probe) ** 2, axis=1)
            impossible = np.array(
                [all(abs(np.vdot(v, h)) ** 2 < 1e-12 for h in honest) for v in basis]
            )
            total += 0.25 * float(probs[impossible].sum())
    return total


def _tensor_power(a: np.ndarray, n: int) -> np.ndarray:
    out = np.ones((1, 1), dtype=a.dtype)
    for _ in range(n):
        out = np.kron(out, a)
    return out


def nogo_fidelity(two_k: int, theta: float = THETA) -> float:
    """F(rho_0, rho_1) for the two parity classes of two_k coded qubits.

    rho_p = rhobar^{(x)N} + (-1)^p Delta^{(x)N}, rhobar = (P0 + P1)/2 and
    Delta = (P0 - P1)/2, written in the eigenbasis of rhobar, where rhobar
    is diagonal and Delta off-diagonal with exact zeros. Both states have
    rank 2^(N-1), and sqrtm of a singular matrix is accurate only to about
    sqrt(eps) of the rounding in its null space: built in the computational
    basis the result is off by 1.5e-8 at N = 6, in this frame by under 1e-9.
    Fidelity is invariant under the product unitary between the two frames.
    """
    from scipy.linalg import sqrtm

    # psi_0 and psi_1 sit at -theta/2 and +theta/2 from the bisector of the pair
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    rhobar = np.array([[c * c, 0.0], [0.0, s * s]])
    delta = np.array([[0.0, -c * s], [-c * s, 0.0]])
    big, small = _tensor_power(rhobar, two_k), _tensor_power(delta, two_k)
    rho0, rho1 = big + small, big - small
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        root = sqrtm(rho0)
        return float(np.trace(sqrtm(root @ rho1 @ root)).real)


def nogo_fidelity_closed_form(two_k: int, theta: float = THETA) -> float:
    """The same fidelity from the 2x2 block structure, in `math` alone.

    In the eigenbasis of rhobar, Delta is off-diagonal, so rho_p splits into
    rank-one blocks on each pair of complementary words; summed over blocks
    F = 1/2 sum_h C(N, h) |c^(2(N-h)) s^(2h) - c^(2h) s^(2(N-h))| with
    c = cos(theta/2), s = sin(theta/2).
    """
    c2, s2 = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
    n = two_k
    return 0.5 * sum(
        math.comb(n, h) * abs(c2 ** (n - h) * s2**h - c2**h * s2 ** (n - h))
        for h in range(n + 1)
    )
