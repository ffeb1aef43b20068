"""State-vector and unitary primitives."""

import numpy as np
import pytest

from qotlab.qsim import (
    StateVector,
    apply_on_qubit,
    bell_state,
    make_nonorthogonal_pair,
    perp,
    rotation_plane,
)
from qotlab.qsim.states import Unitary2x2

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_computational_basis_states():
    zero = StateVector.computational([0])
    one = StateVector.computational([1])
    np.testing.assert_allclose(zero.amps, [1.0, 0.0])
    np.testing.assert_allclose(one.amps, [0.0, 1.0])
    assert abs(np.vdot(zero.amps, one.amps)) == 0.0


def test_state_vector_rejects_bad_input():
    with pytest.raises(ValueError):
        StateVector(num_qubits=1, amps=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        StateVector(num_qubits=1, amps=np.array([1.0, 1.0]))
    # a NaN norm fails the tolerance check too
    for amps in ([np.nan, np.nan], [1.0, np.nan]):
        with pytest.raises(ValueError, match=r"^state is not normalized \(norm="):
            StateVector(num_qubits=1, amps=np.array(amps))


def test_amplitudes_are_locked():
    state = StateVector.computational([0])
    with pytest.raises(ValueError):
        state.amps[0] = 0.5


def test_tensor_ordering_is_big_endian():
    # qubit 0 is the most significant index of the amplitude vector
    s = StateVector.computational([1, 0])
    np.testing.assert_allclose(s.amps, [0, 0, 1, 0])
    t = StateVector.computational([0, 1])
    np.testing.assert_allclose(t.amps, [0, 1, 0, 0])


def test_unitary_validation():
    with pytest.raises(ValueError):
        Unitary2x2(entries=np.array([[1.0, 1.0], [0.0, 1.0]]))
    for build in (rotation_plane, make_nonorthogonal_pair):
        with pytest.raises(ValueError, match="^matrix is not unitary$"):
            build(np.nan)
    u = rotation_plane(0.3)
    np.testing.assert_allclose(
        u.entries @ u.entries.conj().T, np.eye(2), atol=1e-12
    )


@pytest.mark.parametrize("a,b", [(0.2, 0.5), (0.8, -0.3), (np.pi / 4, np.pi / 4)])
def test_rotations_compose_additively(a, b):
    left = rotation_plane(a).entries @ rotation_plane(b).entries
    np.testing.assert_allclose(left, rotation_plane(a + b).entries, atol=1e-12)


def test_rotation_on_basis_states():
    np.testing.assert_allclose(
        rotation_plane(np.pi / 4).entries @ np.array([1.0, 0.0]),
        [INV_SQRT2, INV_SQRT2],
        atol=1e-12,
    )
    np.testing.assert_allclose(
        rotation_plane(np.pi / 2).entries @ np.array([1.0, 0.0]),
        [0.0, 1.0],
        atol=1e-12,
    )


@pytest.mark.parametrize("theta", [0.1, np.pi / 4, 1.0, np.pi / 2])
def test_nonorthogonal_pair_overlap(theta):
    psi0, psi1 = make_nonorthogonal_pair(theta)
    assert np.vdot(psi0.amps, psi1.amps) == pytest.approx(np.cos(theta), abs=1e-12)


def test_perp_is_orthogonal():
    _, psi1 = make_nonorthogonal_pair(np.pi / 4)
    p = perp(psi1)
    assert abs(np.vdot(psi1.amps, p.amps)) < 1e-12
    assert np.linalg.norm(p.amps) == pytest.approx(1.0, abs=1e-12)


def test_bell_states():
    kinds = ("phi+", "phi-", "psi+", "psi-")
    states = [bell_state(k) for k in kinds]
    gram = np.array([[abs(np.vdot(a.amps, b.amps)) for b in states] for a in states])
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(
        bell_state("phi-").amps, [INV_SQRT2, 0, 0, -INV_SQRT2], atol=1e-12
    )
    with pytest.raises(ValueError):
        bell_state("sigma+")


def test_apply_on_qubit_targets_the_right_factor():
    u = rotation_plane(np.pi / 2)
    base = StateVector.computational([0, 0])
    on_first = apply_on_qubit(base, 0, u)
    on_second = apply_on_qubit(base, 1, u)
    np.testing.assert_allclose(on_first.amps, [0, 0, 1, 0], atol=1e-12)
    np.testing.assert_allclose(on_second.amps, [0, 1, 0, 0], atol=1e-12)


def test_apply_on_qubit_matches_kron():
    rng = np.random.default_rng(42)
    for _ in range(10):
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps = amps / np.linalg.norm(amps)
        state = StateVector(num_qubits=3, amps=amps)
        u = rotation_plane(rng.uniform(0, 2 * np.pi))
        got = apply_on_qubit(state, 1, u)
        full = np.kron(np.kron(np.eye(2), u.entries), np.eye(2))
        np.testing.assert_allclose(got.amps, full @ amps, atol=1e-12)
