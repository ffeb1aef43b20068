"""Minimal dense-state quantum simulation primitives, re-exporting only the
names the qotlab modules, the benchmark and the tools import from here."""
from .density import DensityMatrix, fidelity
from .measure import (
    ProjectiveBasis,
    born_probabilities,
    measure_povm,
    measure_projective,
    povm_probabilities,
    usd_povm,
)
from .rng import RngStream, passed_sums, running_sums
from .states import (
    StateVector,
    apply_on_qubit,
    bell_state,
    make_nonorthogonal_pair,
    perp,
    rotation_plane,
)

__all__ = [
    "DensityMatrix",
    "ProjectiveBasis",
    "RngStream",
    "StateVector",
    "apply_on_qubit",
    "bell_state",
    "born_probabilities",
    "fidelity",
    "make_nonorthogonal_pair",
    "measure_povm",
    "measure_projective",
    "passed_sums",
    "perp",
    "povm_probabilities",
    "rotation_plane",
    "running_sums",
    "usd_povm",
]
