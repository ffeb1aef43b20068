"""Cheating strategies: equivocation by purification, probe copies, withheld qubits."""

import itertools

import numpy as np
import pytest

from qotlab.attacks import (
    CheatReport,
    NoGoInstance,
    entangle_probe,
    nogo_cheat_report,
    nogo_cheating_unitary,
    nogo_fidelity,
    nogo_reduced_states,
    omission_attack_p5,
    p3_probe_detection_probability,
    p3_probe_outcome_table,
    p3_probe_pre_state,
    p4_probe_detection_probability,
    probe_attack_p3,
    probe_attack_p4,
    uhlmann_overlap,
)
from qotlab.bitcommit import (
    blinded_amps,
    blinding_angles,
    p3_bases,
    p3_pair_states,
    p4_unblind_and_measure,
)
from qotlab.ot12 import wilson_interval
from qotlab.qsim import (
    DensityMatrix,
    RngStream,
    StateVector,
    born_probabilities,
    fidelity,
    make_nonorthogonal_pair,
)


class TestEquivocationAttack:
    def test_smallest_instance_has_closed_form_fidelity(self):
        """At two sites the parity mixtures overlap at exactly cos(theta)."""
        for theta in (0.3, np.pi / 4, 1.1, 1.4):
            assert nogo_fidelity(NoGoInstance(2, theta=theta)) == pytest.approx(
                np.cos(theta), abs=1e-10
            )

    def test_orthogonal_encoding_states_make_parities_distinguishable(self):
        assert nogo_fidelity(NoGoInstance(2, theta=np.pi / 2)) == pytest.approx(0.0, abs=1e-10)

    def test_nearly_identical_encoding_states_hide_the_parity(self):
        assert nogo_fidelity(NoGoInstance(2, theta=0.01)) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("two_k", [2, 4, 6, 8])
    @pytest.mark.parametrize("theta", [0.3, np.pi / 4, 1.2])
    def test_tensor_power_states_match_the_parity_class_enumeration(self, two_k, theta):
        """The closed form equals the uniform mixture over every bit string of
        the class, built member by member."""
        single = [s.amps for s in make_nonorthogonal_pair(theta)]
        for parity, rho in zip((0, 1), nogo_reduced_states(NoGoInstance(two_k, theta=theta))):
            members = []
            for word in itertools.product((0, 1), repeat=two_k):
                if sum(word) % 2 != parity:
                    continue
                amps = np.ones(1, dtype=np.complex128)
                for bit in word:
                    amps = np.kron(amps, single[bit])
                members.append(np.outer(amps, amps.conj()))
            by_hand = sum(members) / len(members)
            np.testing.assert_allclose(rho.entries, by_hand, rtol=0, atol=1e-14)

    def test_each_state_is_eigendecomposed_once(self):
        rho0, rho1 = nogo_reduced_states(NoGoInstance(4))
        assert rho0.purification_amps is rho0.purification_amps
        assert not rho0.purification_amps.flags.writeable

    def test_reduced_states_are_valid_and_distinct(self):
        rho0, rho1 = nogo_reduced_states(NoGoInstance(4))
        assert rho0.num_qubits == rho1.num_qubits == 4
        assert not np.allclose(rho0.entries, rho1.entries)
        np.testing.assert_allclose(np.trace(rho0.entries), 1.0, atol=1e-12)

    def test_parity_choice_only_relabels_the_states(self):
        rho0, rho1 = nogo_reduced_states(NoGoInstance(4))
        assert fidelity(rho0, rho1) == pytest.approx(fidelity(rho1, rho0), abs=1e-12)
        # one parity twice maps both commitments to one mixture: perfect hiding
        assert fidelity(rho1, rho1) == pytest.approx(1.0, abs=1e-10)

    def test_odd_or_oversized_instances_are_rejected(self):
        with pytest.raises(ValueError):
            NoGoInstance(3)
        with pytest.raises(ValueError):
            NoGoInstance(12)

    @pytest.mark.parametrize("two_k", [2, 4, 6, 8])
    def test_optimal_rotation_achieves_the_fidelity(self, two_k):
        """The two routes to the overlap agree: trace-norm fidelity and the
        explicitly constructed ancilla rotation."""
        inst = NoGoInstance(two_k)
        rho0, rho1 = nogo_reduced_states(inst)
        unitary = nogo_cheating_unitary(rho0, rho1)
        achieved = uhlmann_overlap(rho0, rho1, unitary)
        assert achieved == pytest.approx(fidelity(rho0, rho1), abs=1e-8)

    def test_no_rotation_does_better_than_the_optimum(self):
        inst = NoGoInstance(4)
        rho0, rho1 = nogo_reduced_states(inst)
        best = uhlmann_overlap(rho0, rho1, nogo_cheating_unitary(rho0, rho1))
        rng = np.random.default_rng(99)
        dim = rho0.entries.shape[0]
        for _ in range(10):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, _ = np.linalg.qr(raw)
            assert uhlmann_overlap(rho0, rho1, q) <= best + 1e-10

    def test_fidelity_grows_and_detection_shrinks_with_size(self):
        fids = [nogo_fidelity(NoGoInstance(two_k)) for two_k in (2, 4, 6, 8)]
        assert all(a < b for a, b in zip(fids, fids[1:]))
        detections = [nogo_cheat_report(NoGoInstance(two_k)).detection_probability for two_k in (2, 4, 6)]
        assert all(a > b for a, b in zip(detections, detections[1:]))

    def test_report_consistency(self):
        report = nogo_cheat_report(NoGoInstance(4))
        assert report.achieved_overlap == pytest.approx(report.fidelity, abs=1e-8)
        assert report.detection_probability == pytest.approx(
            1 - report.fidelity**2, abs=1e-8
        )

    def test_report_rejects_inconsistent_numbers(self):
        with pytest.raises(ValueError):
            CheatReport(fidelity=0.9, achieved_overlap=0.5, detection_probability=0.19)
        with pytest.raises(ValueError):
            CheatReport(fidelity=1.2, achieved_overlap=1.2, detection_probability=0.0)

    def test_uhlmann_bound_on_generic_states(self):
        """The constructed rotation attains the fidelity for arbitrary state pairs,
        not just the parity mixtures."""
        rng = np.random.default_rng(123)
        for _ in range(50):
            mats = []
            for _ in range(2):
                raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                mat = raw @ raw.conj().T
                mats.append(DensityMatrix(num_qubits=2, entries=mat / np.trace(mat).real))
            a, b = mats
            achieved = uhlmann_overlap(a, b, nogo_cheating_unitary(a, b))
            assert achieved == pytest.approx(fidelity(a, b), abs=1e-8)


class TestProbeCopies:
    def test_probe_appends_a_correlated_qubit(self):
        state = StateVector(num_qubits=1, amps=np.array([0.6, 0.8]))
        probed = entangle_probe(state, 0)
        np.testing.assert_allclose(probed.amps, [0.6, 0, 0, 0.8], atol=1e-12)

    def test_pre_state_is_a_three_way_correlation(self):
        pre = p3_probe_pre_state()
        expected = np.zeros(8)
        expected[0b000] = 1 / np.sqrt(2)
        expected[0b111] = -1 / np.sqrt(2)
        np.testing.assert_allclose(pre.amps, expected, atol=1e-12)

    def test_outcome_tables_match_direct_simulation(self):
        """Recompute every cell from the attacked state with fresh linear algebra."""
        from qotlab.qsim import apply_on_qubit, rotation_plane

        bases = p3_bases()
        pre = p3_probe_pre_state()
        attacked = {
            0: pre,
            1: apply_on_qubit(pre, 0, rotation_plane(np.pi / 4)),
        }
        for r in (0, 1):
            for x in (0, 1):
                expected = born_probabilities(attacked[r], bases[x], qubits=(0, 1))
                np.testing.assert_allclose(
                    p3_probe_outcome_table(r, x), expected, atol=1e-12
                )

    def test_exact_outcome_table_values(self):
        np.testing.assert_allclose(
            p3_probe_outcome_table(0, 0), [0.5, 0.5, 0, 0], atol=1e-12
        )
        np.testing.assert_allclose(
            p3_probe_outcome_table(1, 1), [0.5, 0, 0, 0.5], atol=1e-12
        )
        np.testing.assert_allclose(
            p3_probe_outcome_table(0, 1), [0.25, 0.25, 0.25, 0.25], atol=1e-12
        )
        np.testing.assert_allclose(
            p3_probe_outcome_table(1, 0), [0.25, 0.25, 0.25, 0.25], atol=1e-12
        )

    def test_detection_only_counts_honestly_impossible_outcomes(self):
        bases = p3_bases()
        honest = dict(enumerate(p3_pair_states()))
        for r in (0, 1):
            for x in (0, 1):
                table = p3_probe_outcome_table(r, x)
                detect = 0.0
                for idx in range(4):
                    honestly_possible = any(
                        born_probabilities(honest[rr], bases[x])[idx] > 1e-9 for rr in (0, 1)
                    )
                    if not honestly_possible:
                        detect += table[idx]
                assert p3_probe_detection_probability(r, x) == pytest.approx(detect, abs=1e-12)

    def test_every_cell_is_detected_at_one_half(self):
        for r in (0, 1):
            for x in (0, 1):
                assert p3_probe_detection_probability(r, x) == pytest.approx(0.5, abs=1e-12)

    def test_probe_attack_statistics(self):
        n, trials = 4, 40_000
        detected = probe_attack_p3(n, trials, RngStream(60, 0))
        assert detected.shape == (trials, n)
        qubits = n * trials
        sigma_q = np.sqrt(0.25 / qubits)
        assert abs(detected.mean() - 0.5) < 5 * sigma_q
        expected_run = 0.5**n
        sigma_r = np.sqrt(expected_run * (1 - expected_run) / trials)
        assert abs((~detected.any(axis=1)).mean() - expected_run) < 5 * sigma_r

    def test_probe_attack_is_reproducible(self):
        a = probe_attack_p3(4, 2000, RngStream(61, 0))
        b = probe_attack_p3(4, 2000, RngStream(61, 0))
        assert np.array_equal(a, b)


class TestProbeOnBlindedQubits:
    def test_zero_blinding_angle_never_detects(self):
        # at a multiple of pi/2 the blinding is a relabelling, and the probe copies nothing
        detection = p4_probe_detection_probability(np.arange(4) * np.pi / 2)
        np.testing.assert_allclose(detection, 0.0, atol=1e-12)

    def test_no_probe_control_never_detects(self):
        """Honest blinded qubits never come out conclusive on the wrong bit."""
        rng = RngStream(63, 0)
        alphas = blinding_angles(rng, 6 * 400)
        r = rng.bits(6 * 400)
        record = p4_unblind_and_measure(blinded_amps(alphas, r), alphas, rng)
        assert record.conclusive
        assert all(val == r[pos - 1] for pos, val in record.conclusive)

    @pytest.mark.parametrize("alpha", [np.pi / 8, np.pi / 4, 1.0])
    def test_fixed_angle_detection_rate(self, alpha):
        expected = np.sin(2 * alpha) ** 2 / 4
        (detection,) = p4_probe_detection_probability([alpha])
        assert detection == pytest.approx(expected, abs=1e-12)

    def test_uniform_blinding_detects_at_the_angle_average(self):
        # the average of sin^2(2a)/4 over a uniform angle is 1/8; a degree-4
        # trigonometric polynomial averages exactly over 8 equispaced angles
        nodes = 2 * np.pi * np.arange(8) / 8
        assert p4_probe_detection_probability(nodes).mean() == pytest.approx(0.125, abs=1e-12)
        n, trials = 8, 4000
        detected = probe_attack_p4(n, trials, RngStream(65, 0))
        assert detected.shape == (trials, n)
        sigma = np.sqrt(0.125 * 0.875 / (n * trials))
        assert abs(detected.mean() - 0.125) < 5 * sigma
        assert wilson_interval(int(detected.sum()), detected.size)[0] > 0.0


class TestWithheldQubits:
    def test_perfect_detectors_catch_the_gap_at_commit(self):
        for rep in range(20):
            report = omission_attack_p5(6, 3, True, RngStream(66, rep))
            assert report.detected_at_commit
            assert not report.open_zero_accepted
            assert not report.open_one_accepted
            assert not report.succeeded

    def test_lossy_detectors_let_both_openings_pass(self):
        for rep in range(20):
            report = omission_attack_p5(6, 3, False, RngStream(67, rep))
            assert not report.detected_at_commit
            assert report.open_zero_accepted
            assert report.open_one_accepted
            assert report.succeeded

    def test_minimal_grid(self):
        report = omission_attack_p5(2, 1, False, RngStream(68, 0))
        assert report.succeeded

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            omission_attack_p5(1, 3, False, RngStream(69, 0))
        with pytest.raises(ValueError):
            omission_attack_p5(4, 0, False, RngStream(69, 1))


def test_nonorthogonal_pair_feeds_the_parity_mixture():
    # the parity mixtures are built from the same pair the transfer channel uses
    theta = np.pi / 4
    psi0, psi1 = make_nonorthogonal_pair(theta)
    rho0, _ = nogo_reduced_states(NoGoInstance(2, theta=theta))
    direct = 0.5 * (
        np.kron(np.outer(psi0.amps, psi0.amps.conj()), np.outer(psi0.amps, psi0.amps.conj()))
        + np.kron(np.outer(psi1.amps, psi1.amps.conj()), np.outer(psi1.amps, psi1.amps.conj()))
    )
    np.testing.assert_allclose(rho0.entries, direct, atol=1e-12)
