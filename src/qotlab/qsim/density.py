"""Density matrices: partial trace, fidelity, purification."""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .states import CONSTRUCTION_ATOL, StateVector


@dataclass(frozen=True)
class DensityMatrix:
    """A mixed state: Hermitian, positive semidefinite, unit trace."""

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.complex128).copy()
        dim = 2**self.num_qubits
        if entries.shape != (dim, dim):
            raise ValueError("entries must be 2**n x 2**n")
        if np.max(np.abs(entries - entries.conj().T)) > CONSTRUCTION_ATOL:
            raise ValueError("density matrix is not Hermitian")
        if np.min(np.linalg.eigvalsh(entries)) < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")
        if abs(np.trace(entries).real - 1.0) > CONSTRUCTION_ATOL:
            raise ValueError("density matrix trace is not 1")
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)

    @functools.cached_property
    def purification_amps(self) -> np.ndarray:
        """Amplitudes sqrt(w_k) v_k[i] of the eigen-purification, system index
        i by rows and ancilla index k by columns; one eigendecomposition per
        state, since the entries cannot change."""
        vals, vecs = np.linalg.eigh(self.entries)
        vals = _clipped_eigvals(vals)
        amps = vecs * np.sqrt(vals / vals.sum())
        amps.flags.writeable = False
        return amps

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
    """Zero out eigenvalues that are numerical noise around zero.

    Rank-deficient inputs come back from eigh with junk of order eps where
    exact zeros belong; the square roots taken downstream would amplify that
    junk to sqrt(eps), so everything far below the top eigenvalue is dropped.
    """
    vals = np.clip(vals, 0.0, None)
    vals[vals < vals.max() * 1e-12] = 0.0
    return vals


def _psd_sqrt(entries: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(entries)
    vals = _clipped_eigvals(vals)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Tr sqrt(sqrt(a) b sqrt(a)); equals |<x|y>| when both states are pure."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("dimension mismatch")
    root = _psd_sqrt(a.entries)
    inner = root @ b.entries @ root
    vals = _clipped_eigvals(np.linalg.eigvalsh(inner))
    return float(min(1.0, np.sum(np.sqrt(vals))))


def purify(dm: DensityMatrix) -> StateVector:
    """A pure state on twice the qubits whose reduction over the appended
    ancilla reproduces dm. Built from the eigendecomposition: amplitudes
    sqrt(w_k) on |v_k> (system, leading qubits) tensor |k> (ancilla)."""
    return StateVector(num_qubits=2 * dm.num_qubits, amps=dm.purification_amps.reshape(-1))
