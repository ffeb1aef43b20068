"""Density matrices, partial trace, fidelity, purification."""

import numpy as np
import pytest
import scipy.linalg

from qotlab.qsim import (
    DensityMatrix,
    StateVector,
    bell_state,
    fidelity,
    make_nonorthogonal_pair,
    partial_trace,
    purify,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def random_density(rng, num_qubits):
    dim = 2**num_qubits
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    mat = raw @ raw.conj().T
    return DensityMatrix(num_qubits=num_qubits, entries=mat / np.trace(mat).real)


def test_construction_rejects_bad_matrices():
    with pytest.raises(ValueError):
        DensityMatrix(num_qubits=1, entries=np.array([[0.5, 0.5], [0.4, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix(num_qubits=1, entries=np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        DensityMatrix(num_qubits=1, entries=np.diag([1.5, -0.5]))  # negative eigenvalue
    with pytest.raises(ValueError):
        DensityMatrix(num_qubits=2, entries=np.eye(2) / 2)  # dimension mismatch


def test_construction_refuses_non_finite_entries():
    # every comparison with NaN is false, so no other check would catch it
    for bad in (np.nan, np.inf):
        entries = np.eye(2) / 2
        entries[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(num_qubits=1, entries=entries)
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(num_qubits=1, entries=np.full((2, 2), complex(np.nan, 0.0)))


def test_entries_are_real_exactly_when_their_imaginary_part_is_zero():
    plus = np.full((2, 2), 0.5)
    for given in (plus, plus.astype(np.complex128), [[0.5, 0.5], [0.5, 0.5]]):
        dm = DensityMatrix(num_qubits=1, entries=given)
        assert dm.entries.dtype == np.float64
        assert dm.purification_amps.dtype == np.float64
        np.testing.assert_array_equal(dm.entries, plus)
    # |+i><+i| has a nonzero imaginary part, so it stays complex
    plus_i = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    dm = DensityMatrix(num_qubits=1, entries=plus_i)
    assert dm.entries.dtype == np.complex128
    np.testing.assert_array_equal(dm.entries, plus_i)
    assert not dm.entries.flags.writeable and not dm.purification_amps.flags.writeable


def test_from_pure_is_projector():
    state = StateVector(num_qubits=1, amps=np.array([INV_SQRT2, INV_SQRT2]))
    dm = DensityMatrix.from_pure(state)
    np.testing.assert_allclose(dm.entries, np.full((2, 2), 0.5), atol=1e-12)
    np.testing.assert_allclose(dm.entries @ dm.entries, dm.entries, atol=1e-12)


def test_partial_trace_of_bell_pair_is_maximally_mixed():
    for kind in ("phi+", "phi-", "psi+", "psi-"):
        dm = DensityMatrix.from_pure(bell_state(kind))
        for keep in ((0,), (1,)):
            reduced = partial_trace(dm, keep)
            np.testing.assert_allclose(reduced.entries, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_of_product_state():
    a = StateVector(num_qubits=1, amps=np.array([0.6, 0.8]))
    b = StateVector(num_qubits=1, amps=np.array([INV_SQRT2, -INV_SQRT2]))
    dm = DensityMatrix.from_pure(StateVector(num_qubits=2, amps=np.kron(a.amps, b.amps)))
    np.testing.assert_allclose(
        partial_trace(dm, (0,)).entries, DensityMatrix.from_pure(a).entries, atol=1e-12
    )
    np.testing.assert_allclose(
        partial_trace(dm, (1,)).entries, DensityMatrix.from_pure(b).entries, atol=1e-12
    )


def test_partial_trace_keep_is_a_set():
    # keep is treated as a set: order and duplicates do not matter
    dm = DensityMatrix.from_pure(StateVector.computational([0, 1, 0]))
    expected = DensityMatrix.from_pure(StateVector.computational([0, 1]))
    for keep in ((0, 1), (1, 0), (1, 0, 1)):
        reduced = partial_trace(dm, keep)
        np.testing.assert_allclose(reduced.entries, expected.entries, atol=1e-12)


def test_partial_trace_validates_keep_list():
    dm = DensityMatrix.from_pure(bell_state("phi+"))
    with pytest.raises(ValueError):
        partial_trace(dm, (0, 2))
    with pytest.raises(ValueError):
        partial_trace(dm, ())


class TestFidelity:
    def test_pure_pure_reduces_to_inner_product(self):
        theta = 0.9
        psi0, psi1 = make_nonorthogonal_pair(theta)
        f = fidelity(DensityMatrix.from_pure(psi0), DensityMatrix.from_pure(psi1))
        assert f == pytest.approx(np.cos(theta), abs=1e-12)

    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            dm = random_density(rng, 2)
            assert fidelity(dm, dm) == pytest.approx(1.0, abs=1e-10)

    def test_pure_versus_maximally_mixed(self):
        pure = DensityMatrix.from_pure(StateVector.computational([0]))
        mixed = DensityMatrix(num_qubits=1, entries=np.eye(2) / 2)
        assert fidelity(pure, mixed) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_bounds_and_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(1234)
        for _ in range(50):
            a = random_density(rng, 2)
            b = random_density(rng, 2)
            f_ab = fidelity(a, b)
            f_ba = fidelity(b, a)
            assert -1e-12 <= f_ab <= 1 + 1e-12
            assert f_ab == pytest.approx(f_ba, abs=1e-10)

    def test_against_matrix_square_root_oracle(self):
        """Cross-check with the trace-norm formula computed via scipy.linalg.sqrtm."""
        rng = np.random.default_rng(4321)
        for _ in range(8):
            a = random_density(rng, 2)
            b = random_density(rng, 2)
            sqrt_a = scipy.linalg.sqrtm(a.entries)
            inner = sqrt_a @ b.entries @ sqrt_a
            expected = np.sum(np.sqrt(np.clip(np.linalg.eigvalsh(inner), 0, None))).real
            assert fidelity(a, b) == pytest.approx(expected, abs=1e-8)

    def test_pure_against_rank_deficient_complex_mixtures(self):
        """F(psi, rho) = sqrt(<psi|rho|psi>) for a mixture rho of r complex
        pure states, at every rank r up to the dimension: the clipped zero
        eigenvalues of both states leave the cross-Gram sum exact."""
        rng = np.random.default_rng(2718)

        def unit(dim):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            return v / np.linalg.norm(v)

        for num_qubits in (1, 2, 3):
            dim = 2**num_qubits
            for rank in range(1, dim + 1):
                psi = unit(dim)
                weights = rng.random(rank) + 0.1
                weights /= weights.sum()
                vecs = [unit(dim) for _ in range(rank)]
                mixture = sum(w * np.outer(v, v.conj()) for w, v in zip(weights, vecs))
                pure = DensityMatrix(num_qubits=num_qubits, entries=np.outer(psi, psi.conj()))
                mixed = DensityMatrix(num_qubits=num_qubits, entries=mixture)
                expected = np.sqrt(np.vdot(psi, mixture @ psi).real)
                assert fidelity(pure, mixed) == pytest.approx(expected, rel=0, abs=1e-12)
                assert fidelity(mixed, pure) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        one = DensityMatrix.from_pure(StateVector.computational([0]))
        two = DensityMatrix.from_pure(StateVector.computational([0, 0]))
        with pytest.raises(ValueError):
            fidelity(one, two)


class TestPurify:
    def test_round_trip_recovers_the_state(self):
        rng = np.random.default_rng(2025)
        for num_qubits in (1, 2):
            for _ in range(10):
                dm = random_density(rng, num_qubits)
                pure = purify(dm)
                assert pure.num_qubits == 2 * num_qubits
                back = partial_trace(
                    DensityMatrix.from_pure(pure), tuple(range(num_qubits))
                )
                np.testing.assert_allclose(back.entries, dm.entries, atol=1e-10)

    def test_pure_input_purifies_to_a_product(self):
        dm = DensityMatrix.from_pure(StateVector.computational([1]))
        pure = purify(dm)
        reduced = partial_trace(DensityMatrix.from_pure(pure), (0,))
        np.testing.assert_allclose(reduced.entries, dm.entries, atol=1e-12)
        # rank one means the ancilla is unentangled
        evals = np.linalg.eigvalsh(
            partial_trace(DensityMatrix.from_pure(pure), (1,)).entries
        )
        assert evals.max() == pytest.approx(1.0, abs=1e-12)
