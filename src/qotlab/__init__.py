"""Simulation laboratory for quantum oblivious transfer and bit commitment.

The package is layered: `qsim` holds the small state-vector and density
toolkit, `rot` the random-transfer qubit channel with its honest and
discrimination receivers, `ot12` the one-out-of-two transfer built on top,
`bitcommit` the four commitment constructions, `attacks` the adversarial
strategies, and `cli` the experiment runner. Import from those submodules;
the package top level holds only `__version__`.
"""
__version__ = "0.5.0"
