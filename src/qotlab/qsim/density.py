"""Density matrices: partial trace, fidelity, purification.

Entries are stored real (float64) when their imaginary part is exactly zero,
and complex128 otherwise. States with real amplitudes, such as the coding
pair and its tensor powers, then run numpy's real routines with no flag and
no second code path: the one eigh at construction, and every svd and
product on the cached purification, dispatch on the dtype.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .states import CONSTRUCTION_ATOL, StateVector


@dataclass(frozen=True)
class DensityMatrix:
    """A mixed state: finite, Hermitian, positive semidefinite, unit trace.

    One eigendecomposition at construction serves both the positivity check
    and `purification_amps`: the amplitudes sqrt(w_k) v_k[i] of the
    eigen-purification, system index i by rows and ancilla index k by
    columns, after `_clipped_eigvals` has zeroed the noise. `fidelity` and
    the Uhlmann overlap both read them. They are not renormalised after the
    clip, which would inflate both by the clipped mass.
    """

    num_qubits: int
    entries: np.ndarray
    purification_amps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = np.asarray(self.entries)
        if np.iscomplexobj(entries) and not entries.imag.any():
            entries = entries.real
        entries = np.array(entries, dtype=np.result_type(entries, np.float64))
        dim = 2**self.num_qubits
        if entries.shape != (dim, dim):
            raise ValueError("entries must be 2**n x 2**n")
        if not np.isfinite(entries).all():
            raise ValueError("density matrix has a non-finite entry")
        if np.max(np.abs(entries - entries.conj().T)) > CONSTRUCTION_ATOL:
            raise ValueError("density matrix is not Hermitian")
        vals, vecs = np.linalg.eigh(entries)
        if vals[0] < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")
        if abs(np.trace(entries).real - 1.0) > CONSTRUCTION_ATOL:
            raise ValueError("density matrix trace is not 1")
        amps = vecs * np.sqrt(_clipped_eigvals(vals))
        for array in (entries, amps):
            array.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "purification_amps", amps)

    @classmethod
    def from_pure(cls, state: StateVector) -> "DensityMatrix":
        return cls(
            num_qubits=state.num_qubits,
            entries=np.outer(state.amps, state.amps.conj()),
        )


def partial_trace(dm: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Trace out every qubit not listed in `keep` (kept in ascending order)."""
    n = dm.num_qubits
    keep = sorted(set(int(q) for q in keep))
    if not keep or any(not 0 <= q < n for q in keep):
        raise ValueError("keep must be a nonempty subset of qubit indices")
    t = dm.entries.reshape([2] * (2 * n))
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = [q for q in keep] + [n + q for q in keep]
    reduced = np.einsum(t, row + col, out)
    return DensityMatrix(num_qubits=len(keep), entries=reduced.reshape(2 ** len(keep), -1))


def _clipped_eigvals(vals: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues below 1e-14 times the largest: eigh's junk where
    exact zeros belong (at most 2.2e-17 on the no-go states), which square
    roots would amplify to about 1e-8, lies below the cut, and the no-go
    states' smallest genuine eigenvalues (1.5e-13 at 2k = 10, theta = 0.05)
    lie above it."""
    vals = np.clip(vals, 0.0, None)
    vals[vals < vals.max() * 1e-14] = 0.0
    return vals


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Tr|sqrt(a) sqrt(b)|; equals |<x|y>| when both states are pure.

    For the cached purifications P = V diag(sqrt(w)), sqrt(a) sqrt(b) =
    V_a (P_a^H P_b) V_b^H, so the singular values summed are those of the
    cross-Gram matrix P_a^H P_b and neither state is decomposed again. The
    eigenvalues of sqrt(a) b sqrt(a) are their squares, so summing their
    square roots after a clip near zero would drop terms below about 1e-6.
    """
    if a.num_qubits != b.num_qubits:
        raise ValueError("dimension mismatch")
    cross_gram = a.purification_amps.conj().T @ b.purification_amps
    return float(min(1.0, np.linalg.svd(cross_gram, compute_uv=False).sum()))


def purify(dm: DensityMatrix) -> StateVector:
    """A pure state on twice the qubits whose reduction over the appended
    ancilla reproduces dm. Built from the eigendecomposition: amplitudes
    sqrt(w_k) on |v_k> (system, leading qubits) tensor |k> (ancilla),
    renormalised for the eigenvalues the clip dropped."""
    amps = dm.purification_amps.reshape(-1)
    return StateVector(num_qubits=2 * dm.num_qubits, amps=amps / np.linalg.norm(amps))
