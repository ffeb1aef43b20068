"""Simulation laboratory for quantum oblivious transfer and bit commitment.

The package is layered: `qsim` holds the small state-vector and density
toolkit, `rot` the random-transfer qubit channel with its honest and
discrimination receivers, `ot12` the one-out-of-two transfer built on top,
`bitcommit` the four commitment constructions, `attacks` the adversarial
strategies, and `cli` the experiment runner.
"""
from . import attacks, bitcommit, ot12, qsim, rot
from .attacks import (
    CheatReport,
    NoGoInstance,
    OmissionAttackReport,
    ProbeAttackReport,
    nogo_cheat_report,
    nogo_cheating_unitary,
    nogo_fidelity,
    nogo_reduced_states,
    omission_attack_p5,
    probe_attack_p3,
    probe_attack_p4,
)
from .bitcommit import (
    CommitTranscript,
    OpenMessage,
    VerifyResult,
    bc_commit_over_ot,
    bc_open,
    bc_verify,
    p5_commit,
    parity_function,
)
from .ot12 import Ot12Transcript, k_of, p1_exact, p2_exact, run_ot12, security_curve
from .qsim import RngStream, StateVector
from .rot import HONEST, USD, RotConfig, run_rot

__version__ = "0.1.0"

__all__ = [
    "CheatReport",
    "CommitTranscript",
    "HONEST",
    "NoGoInstance",
    "OmissionAttackReport",
    "OpenMessage",
    "Ot12Transcript",
    "ProbeAttackReport",
    "RngStream",
    "RotConfig",
    "StateVector",
    "USD",
    "VerifyResult",
    "attacks",
    "bc_commit_over_ot",
    "bc_open",
    "bc_verify",
    "bitcommit",
    "k_of",
    "nogo_cheat_report",
    "nogo_cheating_unitary",
    "nogo_fidelity",
    "nogo_reduced_states",
    "omission_attack_p5",
    "ot12",
    "p1_exact",
    "p2_exact",
    "p5_commit",
    "parity_function",
    "probe_attack_p3",
    "probe_attack_p4",
    "qsim",
    "rot",
    "run_ot12",
    "run_rot",
    "security_curve",
    "__version__",
]
