"""Dense state vectors and single-qubit unitaries for few-qubit systems.

Amplitude ordering is big-endian: basis index i encodes qubit 0 in its most
significant bit, so a two-qubit vector is ordered |00>, |01>, |10>, |11>.
States validate to unit norm on construction and are treated as immutable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

CONSTRUCTION_ATOL = 1e-12


def _as_locked_complex(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128).copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StateVector:
    """A pure state on num_qubits qubits, amplitudes of length 2**num_qubits."""

    num_qubits: int
    amps: np.ndarray

    def __post_init__(self):
        amps = _as_locked_complex(self.amps)
        if amps.ndim != 1 or amps.shape[0] != 2**self.num_qubits:
            raise ValueError("amplitude length must be 2**num_qubits")
        norm = np.linalg.norm(amps)
        if not abs(norm - 1.0) <= CONSTRUCTION_ATOL:
            raise ValueError(f"state is not normalized (norm={norm!r})")
        object.__setattr__(self, "amps", amps)

    @classmethod
    def computational(cls, bits: Sequence[int]) -> "StateVector":
        n = len(bits)
        amps = np.zeros(2**n, dtype=np.complex128)
        index = 0
        for b in bits:
            index = (index << 1) | int(b)
        amps[index] = 1.0
        return cls(num_qubits=n, amps=amps)


@dataclass(frozen=True)
class Unitary2x2:
    """A 2x2 unitary, validated to U^dag U = I at construction."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _as_locked_complex(self.entries)
        if entries.shape != (2, 2):
            raise ValueError("entries must be a 2x2 matrix")
        defect = entries.conj().T @ entries - np.eye(2)
        if not np.max(np.abs(defect)) <= CONSTRUCTION_ATOL:
            raise ValueError("matrix is not unitary")
        object.__setattr__(self, "entries", entries)


def rotation_plane(angle: float) -> Unitary2x2:
    """Real plane rotation by `angle`: |0> goes to cos|0> + sin|1>.

    This is the encoding rotation used throughout: at angle pi/4 it maps
    |0> to |+> and |1> to -|->, which is the convention the two-state coding
    and the entangled-pair expansion both rely on.
    """
    c, s = np.cos(angle), np.sin(angle)
    return Unitary2x2(entries=np.array([[c, -s], [s, c]]))


def make_nonorthogonal_pair(theta: float) -> tuple[StateVector, StateVector]:
    """The coding pair |0> and rotation_plane(theta)|0>, overlap cos(theta)."""
    zero = StateVector.computational([0])
    rotated = StateVector(num_qubits=1, amps=rotation_plane(theta).entries[:, 0])
    return zero, rotated


def perp(state: StateVector) -> StateVector:
    """Orthogonal complement of a single-qubit state: (a, b) -> (-b*, a*)."""
    if state.num_qubits != 1:
        raise ValueError("perp is defined for single qubits")
    a, b = state.amps
    return StateVector(num_qubits=1, amps=np.array([-np.conj(b), np.conj(a)]))


_BELL_AMPS = {
    "phi+": np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0),
    "phi-": np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2.0),
    "psi+": np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0),
    "psi-": np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0),
}


def bell_state(kind: str) -> StateVector:
    """One of the four maximally entangled pair states phi+/phi-/psi+/psi-."""
    if kind not in _BELL_AMPS:
        raise ValueError(f"unknown pair state {kind!r}")
    return StateVector(num_qubits=2, amps=_BELL_AMPS[kind])


def apply_on_qubit(state: StateVector, qubit_index: int, u: Unitary2x2) -> StateVector:
    """Apply a single-qubit unitary to one qubit of a multi-qubit state."""
    n = state.num_qubits
    if not 0 <= qubit_index < n:
        raise ValueError("qubit_index out of range")
    t = state.amps.reshape([2] * n)
    t = np.moveaxis(np.tensordot(u.entries, t, axes=([1], [qubit_index])), 0, qubit_index)
    return StateVector(num_qubits=n, amps=np.ascontiguousarray(t).reshape(-1))
