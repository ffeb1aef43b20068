"""The batched channel kernel against the per-state engine, channel by channel.

Every channel samples its qubits through `batch_probabilities` and
`RngStream.choice_indices`; each test here rebuilds the same states one at a
time with `StateVector`, `apply_on_qubit` and the single-state Born rule and
requires agreement to 1e-12.
"""

import numpy as np
import pytest

from qotlab.attacks import entangle_probe, entangle_probe_rows
from qotlab.bitcommit import blinded_amps, p3_bases, p3_prepare_and_encode
from qotlab.qsim import (
    ProjectiveBasis,
    RngStream,
    StateVector,
    apply_on_qubit,
    batch_probabilities,
    bell_state,
    born_probabilities,
    inverse_cdf,
    povm_probabilities,
    rotate_rows,
    rotation_plane,
    usd_povm,
)
from qotlab.rot import encoding_amps, measurement_bases

ATOL = 1e-12
ENCODE = np.pi / 4


def rows_as_states(amps):
    return [StateVector.from_amplitudes(row) for row in amps]


@pytest.mark.parametrize("theta", [0.3, np.pi / 4, 1.1, np.pi / 2])
def test_honest_and_usd_channels_match_the_single_state_rule(theta):
    gen = np.random.default_rng(1)
    bits = gen.integers(0, 2, size=40)
    x = gen.integers(0, 2, size=40)
    amps = encoding_amps(theta)[bits]
    bases = measurement_bases(theta)
    povm = usd_povm(theta)
    honest = batch_probabilities(amps, bases, choice=x)
    usd = batch_probabilities(amps, povm)
    for i, state in enumerate(rows_as_states(amps)):
        np.testing.assert_allclose(honest[i], born_probabilities(state, bases[x[i]]), atol=ATOL)
        np.testing.assert_allclose(usd[i], povm_probabilities(state, povm), atol=ATOL)


def test_pair_channel_matches_the_single_state_rule():
    gen = np.random.default_rng(2)
    bits = gen.integers(0, 2, size=40)
    x = gen.integers(0, 2, size=40)
    amps = p3_prepare_and_encode(bits)
    bases = p3_bases()
    probs = batch_probabilities(amps, bases, choice=x)
    for i, state in enumerate(rows_as_states(amps)):
        np.testing.assert_allclose(probs[i], born_probabilities(state, bases[x[i]]), atol=ATOL)


def test_blinded_and_grid_channels_match_the_single_state_rule():
    """P4 and the P5 grid: blind, encode, unblind, measure."""
    gen = np.random.default_rng(3)
    alphas = gen.uniform(0, 2 * np.pi, size=(5, 8))
    bits = gen.integers(0, 2, size=(5, 8))
    x = gen.integers(0, 2, size=40)
    bases = measurement_bases(ENCODE)
    # P4 encodes by rotating the blinded qubit; the P5 grid prepares the sum angle
    p4 = rotate_rows(blinded_amps(alphas.ravel()), ENCODE * bits.ravel())
    p5 = blinded_amps(alphas, bits).reshape(-1, 2)
    np.testing.assert_allclose(p4, p5, atol=ATOL)
    unblinded = rotate_rows(p4, -alphas.ravel())
    probs = batch_probabilities(unblinded, bases, choice=x)
    for i, (a, b) in enumerate(zip(alphas.ravel(), bits.ravel())):
        state = StateVector(num_qubits=1, amps=[1.0, 0.0])
        state = apply_on_qubit(state, 0, rotation_plane(a))
        if b:
            state = apply_on_qubit(state, 0, rotation_plane(ENCODE))
        state = apply_on_qubit(state, 0, rotation_plane(-a))
        np.testing.assert_allclose(unblinded[i], state.amps, atol=ATOL)
        np.testing.assert_allclose(probs[i], born_probabilities(state, bases[x[i]]), atol=ATOL)


@pytest.mark.parametrize("apply_probe", [True, False])
def test_probe_on_blinded_qubits_matches_the_single_state_rule(apply_probe):
    gen = np.random.default_rng(4 + apply_probe)
    alphas = gen.uniform(0, 2 * np.pi, size=30)
    r = gen.integers(0, 2, size=30)
    x = gen.integers(0, 2, size=30)
    bases = measurement_bases(ENCODE)
    amps = blinded_amps(alphas)
    if apply_probe:
        amps = entangle_probe_rows(amps)
    amps = rotate_rows(rotate_rows(amps, ENCODE * r), -alphas)
    qubits = (0,) if apply_probe else None
    probs = batch_probabilities(amps, bases, choice=x, qubits=qubits)
    for i in range(30):
        state = StateVector(num_qubits=1, amps=blinded_amps(alphas[i]))
        if apply_probe:
            state = entangle_probe(state, 0)
        if r[i]:
            state = apply_on_qubit(state, 0, rotation_plane(ENCODE))
        state = apply_on_qubit(state, 0, rotation_plane(-alphas[i]))
        np.testing.assert_allclose(amps[i], state.amps, atol=ATOL)
        expected = born_probabilities(state, bases[x[i]], qubits=qubits)
        np.testing.assert_allclose(probs[i], expected, atol=ATOL)


def test_rotate_rows_acts_on_qubit_zero():
    gen = np.random.default_rng(6)
    raw = gen.normal(size=(6, 8)) + 1j * gen.normal(size=(6, 8))
    amps = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    angles = gen.uniform(0, 2 * np.pi, size=6)
    rotated = rotate_rows(amps, angles)
    for i in range(6):
        state = StateVector(num_qubits=3, amps=amps[i])
        expected = apply_on_qubit(state, 0, rotation_plane(angles[i]))
        np.testing.assert_allclose(rotated[i], expected.amps, atol=ATOL)


def test_partial_measurement_traces_out_the_other_qubits():
    amps = np.stack([bell_state("phi-").amps, bell_state("psi+").amps])
    basis = measurement_bases(ENCODE)[0]
    for qubit in (0, 1):
        probs = batch_probabilities(amps, basis, qubits=(qubit,))
        for i, state in enumerate(rows_as_states(amps)):
            expected = born_probabilities(state, basis, qubits=(qubit,))
            np.testing.assert_allclose(probs[i], expected, atol=ATOL)


def test_batch_kernel_rejects_bad_input():
    amps = encoding_amps(ENCODE)[[0, 1]]
    bases = measurement_bases(ENCODE)
    with pytest.raises(ValueError):
        batch_probabilities(amps, bases, choice=[0])  # one choice for two rows
    with pytest.raises(ValueError):
        batch_probabilities(amps, bases, choice=[0, 2])  # no third basis
    with pytest.raises(ValueError):
        batch_probabilities(amps, usd_povm(ENCODE), qubits=(0,))
    with pytest.raises(ValueError):
        batch_probabilities(amps[0], bases[0])  # not a batch
    half = ProjectiveBasis(states=(StateVector.computational([0]),), labels=("0",))
    with pytest.raises(ValueError):
        batch_probabilities(amps, half)


def test_sampler_agrees_with_choice_index_for_the_same_uniforms():
    gen = np.random.default_rng(7)
    probs = gen.dirichlet(np.ones(4), size=500)
    probs[:50] = [0.0, 1.0, 0.0, 0.0]
    batched = RngStream(8, 0).choice_indices(probs)
    single = RngStream(8, 0)
    expected = [single.choice_index(row) for row in probs]
    np.testing.assert_array_equal(batched, expected)
    u = gen.random(500)
    for row, ui, got in zip(probs, u, inverse_cdf(probs, u)):
        acc = np.cumsum(row)
        assert got == min(int(np.searchsorted(acc, ui, side="right")), 3)


def test_sampler_falls_back_to_the_last_index():
    # rows summing to slightly below one, with a uniform above the total
    probs = np.array([[0.5, 0.5 - 1e-9]])
    assert inverse_cdf(probs, np.array([1.0 - 1e-10]))[0] == 1


class TestStreams:
    def test_substream_keys_do_not_collide_across_stream_indices(self):
        """Index mixing once sent both of these to one stream."""
        a = RngStream(7, 0).substream(2**20)
        b = RngStream(7, 1).substream(0)
        assert not np.array_equal(a.bits(64), b.bits(64))

    def test_substreams_are_reproducible_and_distinct(self):
        parent = RngStream(7, 3)
        assert np.array_equal(parent.substream(5).bits(64), RngStream(7, 3).substream(5).bits(64))
        draws = {parent.substream(i).bits(64).tobytes() for i in range(50)}
        draws.add(parent.bits(64).tobytes())
        assert len(draws) == 51

    def test_nested_substreams_differ_from_flat_ones(self):
        nested = RngStream(7, 0).substream(1).substream(2).bits(64)
        assert not np.array_equal(nested, RngStream(7, 0).substream(1).bits(64))
        assert not np.array_equal(nested, RngStream(7, 1).substream(2).bits(64))

    def test_indices_must_fit_in_one_word(self):
        with pytest.raises(ValueError):
            RngStream(7, 2**32)
        with pytest.raises(ValueError):
            RngStream(7, 0).substream(-1)
        with pytest.raises(ValueError):
            RngStream(7, 0).substream(2**32)
