"""Projective and POVM measurements with Born-rule sampling.

A ProjectiveBasis may cover the whole system or, via the `qubits` argument
of `born_probabilities`, just a subset of it; probabilities must sum to one
over the basis, otherwise the basis does not span the measured space and
the call is rejected. An outcome is named by its index in the basis or POVM.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .rng import RngStream
from .states import CONSTRUCTION_ATOL, StateVector, check_angle, make_nonorthogonal_pair, perp

SPAN_ATOL = 1e-9


@dataclass(frozen=True)
class ProjectiveBasis:
    """Mutually orthonormal states spanning the measured space."""

    states: tuple[StateVector, ...]

    def __post_init__(self):
        states = tuple(self.states)
        if not states:
            raise ValueError("a basis needs at least one state")
        n = states[0].num_qubits
        if any(s.num_qubits != n for s in states):
            raise ValueError("basis states must share a qubit count")
        matrix = np.stack([s.amps for s in states])
        gram = matrix.conj() @ matrix.T
        if not np.max(np.abs(gram - np.eye(len(states)))) <= CONSTRUCTION_ATOL:
            raise ValueError("basis states are not orthonormal")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_matrix_conj", matrix.conj())

    @property
    def num_qubits(self) -> int:
        return self.states[0].num_qubits


def born_probabilities(state: StateVector, basis: ProjectiveBasis, qubits=None) -> np.ndarray:
    """Outcome probabilities for measuring `basis` on `state` (or a subset)."""
    n = state.num_qubits
    k = basis.num_qubits
    if qubits is None:
        if k != n:
            raise ValueError("basis size does not match the state; pass qubits")
        mat = state.amps.reshape(2**n, 1)
    else:
        qubits = list(qubits)
        if len(qubits) != k or len(set(qubits)) != k:
            raise ValueError("qubits must list one distinct index per basis qubit")
        if any(not 0 <= q < n for q in qubits):
            raise ValueError("qubit index out of range")
        t = state.amps.reshape([2] * n)
        t = np.moveaxis(t, qubits, range(k))
        mat = np.ascontiguousarray(t).reshape(2**k, -1)
    # row j: the unnormalized amplitudes of the unmeasured rest after outcome j
    resid = basis._matrix_conj @ mat
    probs = np.sum(np.abs(resid) ** 2, axis=1)
    if not abs(probs.sum() - 1.0) <= SPAN_ATOL:
        raise ValueError("basis does not span the measured space")
    return probs


def measure_projective(state: StateVector, basis: ProjectiveBasis, rng: RngStream) -> int:
    """Sample an outcome index; the post-measurement state is not kept."""
    return rng.choice_index(born_probabilities(state, basis))


@dataclass(frozen=True)
class Povm:
    """Positive effects summing to the identity."""

    effects: tuple[np.ndarray, ...]

    def __post_init__(self):
        effects = tuple(np.asarray(e, dtype=np.complex128) for e in self.effects)
        if not effects:
            raise ValueError("a POVM needs at least one effect")
        dim = effects[0].shape[0]
        total = np.zeros((dim, dim), dtype=np.complex128)
        for e in effects:
            if e.shape != (dim, dim):
                raise ValueError("effects must be square matrices of one dimension")
            if not np.max(np.abs(e - e.conj().T)) <= CONSTRUCTION_ATOL:
                raise ValueError("effect is not Hermitian")
            if np.min(np.linalg.eigvalsh(e)) < -1e-12:
                raise ValueError("effect is not positive semidefinite")
            total += e
        if not np.max(np.abs(total - np.eye(dim))) <= CONSTRUCTION_ATOL:
            raise ValueError("effects do not sum to the identity")
        locked = []
        for e in effects:
            e = e.copy()
            e.flags.writeable = False
            locked.append(e)
        object.__setattr__(self, "effects", tuple(locked))

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]


def povm_probabilities(state: StateVector, povm: Povm) -> np.ndarray:
    if state.amps.shape[0] != povm.dim:
        raise ValueError("state dimension does not match the POVM")
    return np.array([np.real(np.vdot(state.amps, e @ state.amps)) for e in povm.effects])


def measure_povm(state: StateVector, povm: Povm, rng: RngStream) -> int:
    """Sample an outcome index; POVMs carry no post-measurement state here."""
    return rng.choice_index(povm_probabilities(state, povm))


@functools.lru_cache(maxsize=None)
def usd_povm(theta: float) -> Povm:
    """Unambiguous discrimination of the coding pair with overlap cos(theta).

    Each conclusive effect projects onto the complement of the *other* coding
    state, scaled by 1/(1 + cos(theta)); what remains is the inconclusive
    effect. Conclusive outcomes are then never wrong, and either conclusive
    outcome fires with probability 1 - cos(theta) on its matching input.
    Outcome 0 decodes bit 0, outcome 1 bit 1, and outcome 2 is inconclusive.
    """
    check_angle(theta)
    psi0, psi1 = make_nonorthogonal_pair(theta)
    scale = 1.0 / (1.0 + np.cos(theta))
    e0 = scale * np.outer(perp(psi1).amps, perp(psi1).amps.conj())
    e1 = scale * np.outer(perp(psi0).amps, perp(psi0).amps.conj())
    e_inc = np.eye(2) - e0 - e1
    return Povm(effects=(e0, e1, e_inc))
