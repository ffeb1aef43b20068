"""The reference routes' Born step against the per-state engine, channel by channel.

Every channel's table is built by the single-state Born rule, and the
reference routes sample through their own Born step, `born_rows` and
`povm_rows`, with `inverse_cdf`; each test here rebuilds the route's states
one at a time with `StateVector`, `apply_on_qubit` and the single-state
Born rule and requires agreement to 1e-12.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qotlab.attacks import _p3_probe_tables, entangle_probe_rows, p3_probe_pre_state
from qotlab.bitcommit import p3_bases, p3_pair_states
from qotlab.qsim import (
    RngStream,
    StateVector,
    apply_on_qubit,
    bell_state,
    born_probabilities,
    passed_sums,
    povm_probabilities,
    rotation_plane,
    running_sums,
    usd_povm,
)
from qotlab.rot import USD, born_table, encoding_amps, measurement_bases
from rotation_route import blinded_amps, born_rows, inverse_cdf, povm_rows, rotate_rows

ATOL = 1e-12
ENCODE = np.pi / 4


def rows_as_states(amps):
    return [StateVector(num_qubits=len(row).bit_length() - 1, amps=row) for row in amps]


def entangle_probe(state: StateVector, control_qubit: int) -> StateVector:
    """The per-state probe copier: append a fresh probe qubit copying the
    control in the standard basis."""
    n = state.num_qubits
    if not 0 <= control_qubit < n:
        raise ValueError("control qubit out of range")
    old = state.amps.reshape([2] * n)
    new = np.zeros([2] * (n + 1), dtype=np.complex128)
    take = [slice(None)] * n
    for c in (0, 1):
        sl = list(take)
        sl[control_qubit] = c
        new[tuple(sl) + (c,)] = old[tuple(sl)]
    return StateVector(num_qubits=n + 1, amps=new.reshape(-1))


def test_reference_probe_appends_a_correlated_qubit():
    state = StateVector(num_qubits=1, amps=np.array([0.6, 0.8]))
    probed = entangle_probe(state, 0)
    np.testing.assert_allclose(probed.amps, [0.6, 0, 0, 0.8], atol=1e-12)


@pytest.mark.parametrize("theta", [0.3, np.pi / 4, 1.1, np.pi / 2])
def test_honest_and_usd_channels_match_the_single_state_rule(theta):
    gen = np.random.default_rng(1)
    bits = gen.integers(0, 2, size=40)
    x = gen.integers(0, 2, size=40)
    amps = encoding_amps(theta)[bits]
    bases = measurement_bases(theta)
    povm = usd_povm(theta)
    honest = born_rows(amps, bases, x)
    usd = povm_rows(amps, povm)
    for i, state in enumerate(rows_as_states(amps)):
        np.testing.assert_allclose(honest[i], born_probabilities(state, bases[x[i]]), atol=ATOL)
        np.testing.assert_allclose(usd[i], povm_probabilities(state, povm), atol=ATOL)


def test_pair_channel_matches_the_single_state_rule():
    gen = np.random.default_rng(2)
    bits = gen.integers(0, 2, size=40)
    x = gen.integers(0, 2, size=40)
    amps = np.stack([state.amps for state in p3_pair_states()])[bits]
    bases = p3_bases()
    probs = born_rows(amps, bases, x)
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
    probs = born_rows(unblinded, bases, x)
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
    probs = born_rows(amps, bases, x)
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


def test_probe_tables_are_the_per_state_construction_bit_for_bit():
    """The P3 probe's outcome table and detection masks, rebuilt state by
    state: the pre-state from the per-state copier, and a mask entry set
    where no honest pair state gives the outcome in that basis."""
    pre = entangle_probe(bell_state("phi-"), 0)
    assert np.array_equal(p3_probe_pre_state().amps, pre.amps)
    bases = p3_bases()
    attacked = (pre, apply_on_qubit(pre, 0, rotation_plane(ENCODE)))
    probs = np.zeros((4, 4))
    masks = np.zeros((4, 4), dtype=bool)
    for r in (0, 1):
        for x in (0, 1):
            probs[2 * r + x] = born_probabilities(attacked[r], bases[x], qubits=(0, 1))
            support = np.zeros(4, dtype=bool)
            for state in p3_pair_states():
                support |= born_probabilities(state, bases[x]) > 1e-9
            masks[2 * r + x] = ~support
    got_probs, got_masks = _p3_probe_tables()
    assert np.array_equal(got_probs, probs)
    assert np.array_equal(got_masks, masks)


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
    bases = measurement_bases(ENCODE)
    for x in (0, 1):
        probs = born_rows(amps, bases, x)
        for i, state in enumerate(rows_as_states(amps)):
            expected = born_probabilities(state, bases[x], qubits=(0,))
            np.testing.assert_allclose(probs[i], expected, atol=ATOL)

def test_sampler_agrees_with_choice_index_for_the_same_uniforms():
    gen = np.random.default_rng(7)
    probs = gen.dirichlet(np.ones(4), size=500)
    probs[:50] = [0.0, 1.0, 0.0, 0.0]
    batched = inverse_cdf(probs, RngStream(8, 0).gen.random(len(probs)))
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


def reference_inverse_cdf(probabilities: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The first-exceeding rule as the sampler read before running sums were
    cached: the first index whose running sum exceeds u, else the last."""
    cum = np.cumsum(probabilities, axis=1)
    above = np.asarray(u)[:, np.newaxis] < cum
    idx = above.argmax(axis=1)
    idx[~above.any(axis=1)] = cum.shape[1] - 1
    return idx


@st.composite
def rows_and_uniforms(draw):
    """Probability rows with the edge cases of a Born table, each with a
    uniform: zero entries, rows summing just below 1, tiny negative entries
    (first or later), and uniforms exactly on a running sum or one ulp
    either side of it."""
    k = draw(st.integers(1, 5))
    weights = draw(
        st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=k, max_size=k)
    )
    row = np.array(weights) / sum(weights) if sum(weights) > 0 else np.eye(k)[-1]
    row = row * draw(st.sampled_from([1.0, 1.0 - 1e-12, 1.0 - 2**-52]))
    if draw(st.booleans()):
        row[draw(st.integers(0, k - 1))] = -draw(st.sampled_from([8.3e-17, 2.8e-17, 1e-300]))
    on = float(np.cumsum(row)[draw(st.integers(0, k - 1))])
    # on the running sum or one ulp either side, kept inside [0, 1)
    near = (on, np.nextafter(on, 0.0), np.nextafter(on, 1.0))
    near = [min(max(v, 0.0), np.nextafter(1.0, 0.0)) for v in near]
    u = draw(st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.sampled_from(near)))
    return row, u


@settings(max_examples=400, deadline=None)
@given(st.lists(rows_and_uniforms(), min_size=1, max_size=20))
def test_running_sum_rule_is_the_first_exceeding_rule_draw_for_draw(cases):
    """One sampler rule, two routes: counting the running sums u has
    passed equals the first-exceeding rule, batched and per state."""
    k = max(len(row) for row, _ in cases)
    # pad short rows with zero-probability outcomes so the batch is square
    probs = np.array([np.concatenate([row, np.zeros(k - len(row))]) for row, _ in cases])
    u = np.array([ui for _, ui in cases])
    want = reference_inverse_cdf(probs, u)
    np.testing.assert_array_equal(inverse_cdf(probs, u), want)
    np.testing.assert_array_equal(passed_sums(running_sums(probs), u), want)

    class Uniforms:
        def __init__(self):
            self.left = iter(u.tolist())

        def random(self):
            return next(self.left)

    stream = RngStream(0, 0)
    stream.gen = Uniforms()
    np.testing.assert_array_equal([stream.choice_index(row) for row in probs], want)


@pytest.mark.parametrize("theta", [0.7, 0.7125641025641026, 1.1023076923076924])
def test_a_negative_table_entry_samples_like_the_first_exceeding_rule(theta):
    """The discriminating table holds a tiny negative entry at [1, 0] at
    these angles, so its first running sum lies below 0."""
    table = born_table(theta, USD)
    assert table[1, 0] < 0.0
    sums = running_sums(table)
    cum = np.cumsum(table, axis=1)
    u = np.concatenate([[0.0], cum[:, :-1].ravel(), np.nextafter(cum[:, :-1].ravel(), 1.0)])
    for row in (0, 1):
        rows = np.full(len(u), row)
        np.testing.assert_array_equal(
            passed_sums(sums[:, rows], u), reference_inverse_cdf(table[rows], u)
        )


def test_running_sums_are_read_only_columns():
    probs = np.array([[0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
    sums = running_sums(probs)
    assert sums.shape == (2, 2)
    assert not sums.flags.writeable
    np.testing.assert_array_equal(sums, [[0.2, 1.0], [0.5, 1.0]])
    # a running sum that dips is held at the one before it
    np.testing.assert_array_equal(running_sums(np.array([[0.5, -1e-17, 0.5]])), [[0.5], [0.5]])


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
