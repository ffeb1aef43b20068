"""Minimal dense-state quantum simulation primitives."""
from .density import DensityMatrix, fidelity, partial_trace, purify
from .measure import (
    CONCLUSIVE_0,
    CONCLUSIVE_1,
    INCONCLUSIVE,
    Povm,
    ProjectiveBasis,
    batch_probabilities,
    born_probabilities,
    measure_povm,
    measure_projective,
    povm_probabilities,
    usd_povm,
)
from .rng import DEFAULT_SEED, RngStream, passed_sums, running_sums
from .states import (
    StateVector,
    Unitary2x2,
    apply_on_qubit,
    bell_state,
    make_nonorthogonal_pair,
    perp,
    rotation_plane,
)

__all__ = [
    "CONCLUSIVE_0",
    "CONCLUSIVE_1",
    "DEFAULT_SEED",
    "DensityMatrix",
    "INCONCLUSIVE",
    "Povm",
    "ProjectiveBasis",
    "RngStream",
    "StateVector",
    "Unitary2x2",
    "apply_on_qubit",
    "batch_probabilities",
    "bell_state",
    "born_probabilities",
    "fidelity",
    "make_nonorthogonal_pair",
    "measure_povm",
    "measure_projective",
    "partial_trace",
    "passed_sums",
    "perp",
    "povm_probabilities",
    "purify",
    "rotation_plane",
    "running_sums",
    "usd_povm",
]
