"""Projective and POVM measurement layer."""

import numpy as np
import pytest

from qotlab.qsim import (
    CONCLUSIVE_0,
    CONCLUSIVE_1,
    INCONCLUSIVE,
    ProjectiveBasis,
    RngStream,
    StateVector,
    bell_state,
    born_probabilities,
    make_nonorthogonal_pair,
    measure_povm,
    measure_projective,
    perp,
    povm_probabilities,
    rotation_plane,
    usd_povm,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def comp_basis(n):
    states = tuple(
        StateVector.computational([int(c) for c in format(i, f"0{n}b")]) for i in range(2**n)
    )
    return ProjectiveBasis(states=states, labels=tuple(format(i, f"0{n}b") for i in range(2**n)))


def test_basis_must_be_orthonormal():
    plus = StateVector(num_qubits=1, amps=np.array([INV_SQRT2, INV_SQRT2]))
    with pytest.raises(ValueError):
        ProjectiveBasis(states=(plus, StateVector.computational([0])), labels=("a", "b"))


def test_born_probabilities_plus_state():
    plus = StateVector(num_qubits=1, amps=np.array([INV_SQRT2, INV_SQRT2]))
    np.testing.assert_allclose(
        born_probabilities(plus, comp_basis(1)), [0.5, 0.5], atol=1e-12
    )


def test_born_probabilities_subsystem():
    # measuring only qubit 1 of |0>(a|0>+b|1>) sees the marginal of qubit 1
    a, b = 0.6, 0.8
    inner = StateVector(num_qubits=1, amps=np.array([a, b]))
    state = StateVector(num_qubits=2, amps=np.kron([1.0, 0.0], inner.amps))
    np.testing.assert_allclose(
        born_probabilities(state, comp_basis(1), qubits=(1,)), [a * a, b * b], atol=1e-12
    )


def test_born_probabilities_incomplete_basis_rejected():
    # a one-element "basis" does not span the qubit
    basis = ProjectiveBasis(states=(StateVector.computational([0]),), labels=("0",))
    with pytest.raises(ValueError):
        born_probabilities(StateVector(num_qubits=1, amps=np.array([INV_SQRT2, INV_SQRT2])), basis)


def test_measure_projective_collapses_subsystem():
    rng = RngStream(11, 0)
    state = bell_state("phi+")
    assert measure_projective(state, comp_basis(1), rng, qubits=(0,)) in ("0", "1")
    # on |10> the label is the measured qubit's own value
    product = StateVector.computational([1, 0])
    assert measure_projective(product, comp_basis(1), rng, qubits=(0,)) == "1"


def test_measure_projective_with_permuted_qubits():
    # measuring qubits (1, 0) of |01> must report the swapped word "10"
    state = StateVector.computational([0, 1])
    rng = RngStream(12, 0)
    assert measure_projective(state, comp_basis(2), rng, qubits=(1, 0)) == "10"


def test_measure_projective_full_space_returns_basis_state():
    rng = RngStream(13, 0)
    plus = StateVector(num_qubits=1, amps=np.array([INV_SQRT2, INV_SQRT2]))
    assert measure_projective(plus, comp_basis(1), rng) in ("0", "1")


def test_measure_projective_frequencies():
    """Sampled outcome frequencies follow the Born rule (5 sigma)."""
    rng = RngStream(14, 0)
    basis = comp_basis(1)
    amp0 = np.sqrt(0.3)
    state = StateVector(num_qubits=1, amps=np.array([amp0, np.sqrt(0.7)]))
    samples = 100_000
    ones = sum(
        1 for _ in range(samples) if measure_projective(state, basis, rng) == "1"
    )
    sigma = np.sqrt(0.3 * 0.7 / samples)
    assert abs(ones / samples - 0.7) < 5 * sigma


class TestUsdPovm:
    def test_effects_are_valid_at_random_angles(self):
        rng = np.random.default_rng(2023)
        for theta in rng.uniform(0.05, np.pi / 2, size=20):
            povm = usd_povm(theta)
            total = np.zeros((2, 2), dtype=np.complex128)
            for effect in povm.effects:
                np.testing.assert_allclose(effect, effect.conj().T, atol=1e-12)
                assert np.linalg.eigvalsh(effect).min() >= -1e-12
                total += effect
            np.testing.assert_allclose(total, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("theta", [0.3, np.pi / 4, 1.2, np.pi / 2])
    def test_discrimination_is_unambiguous(self, theta):
        psi0, psi1 = make_nonorthogonal_pair(theta)
        povm = usd_povm(theta)
        p0 = povm_probabilities(psi0, povm)
        p1 = povm_probabilities(psi1, povm)
        success = 1.0 - np.cos(theta)
        by_label0 = dict(zip(povm.labels, p0))
        by_label1 = dict(zip(povm.labels, p1))
        assert by_label0[CONCLUSIVE_0] == pytest.approx(success, abs=1e-12)
        assert by_label0[CONCLUSIVE_1] == pytest.approx(0.0, abs=1e-12)
        assert by_label1[CONCLUSIVE_1] == pytest.approx(success, abs=1e-12)
        assert by_label1[CONCLUSIVE_0] == pytest.approx(0.0, abs=1e-12)
        assert by_label0[INCONCLUSIVE] == pytest.approx(np.cos(theta), abs=1e-12)

    def test_identical_states_are_rejected(self):
        with pytest.raises(ValueError):
            usd_povm(0.0)
        with pytest.raises(ValueError):
            usd_povm(np.pi)

    def test_sampling_matches_probabilities(self):
        theta = np.pi / 4
        povm = usd_povm(theta)
        psi0, _ = make_nonorthogonal_pair(theta)
        rng = RngStream(15, 0)
        samples = 100_000
        counts = {label: 0 for label in povm.labels}
        for _ in range(samples):
            counts[measure_povm(psi0, povm, rng)] += 1
        success = 1.0 - np.cos(theta)
        sigma = np.sqrt(success * (1 - success) / samples)
        assert counts[CONCLUSIVE_1] == 0
        assert abs(counts[CONCLUSIVE_0] / samples - success) < 5 * sigma


def test_perp_outcome_identifies_the_other_state():
    # the outcome along perp(psi_x) can only come from psi_{1-x}
    theta = np.pi / 4
    psi0, psi1 = make_nonorthogonal_pair(theta)
    basis0 = ProjectiveBasis(states=(psi0, perp(psi0)), labels=("along", "perp"))
    np.testing.assert_allclose(born_probabilities(psi0, basis0), [1.0, 0.0], atol=1e-12)
    probs1 = born_probabilities(psi1, basis0)
    assert probs1[1] == pytest.approx(np.sin(theta) ** 2, abs=1e-12)


def test_four_outcome_entangled_basis_measurement():
    bases = tuple(bell_state(k) for k in ("phi+", "phi-", "psi+", "psi-"))
    basis = ProjectiveBasis(states=bases, labels=("phi+", "phi-", "psi+", "psi-"))
    probs = born_probabilities(bell_state("psi+"), basis)
    np.testing.assert_allclose(probs, [0, 0, 1, 0], atol=1e-12)
    mixed = StateVector.computational([0, 1])
    np.testing.assert_allclose(born_probabilities(mixed, basis), [0, 0, 0.5, 0.5], atol=1e-12)


def test_rotating_one_half_of_a_pair():
    # the transit-rotation identity used by the entangled commitment
    from qotlab.qsim import apply_on_qubit

    rotated = apply_on_qubit(bell_state("phi-"), 0, rotation_plane(np.pi / 4))
    expected = (bell_state("phi-").amps + bell_state("psi+").amps) / np.sqrt(2.0)
    np.testing.assert_allclose(rotated.amps, expected, atol=1e-12)
