"""Cheating strategies: equivocation by purification, probe copies, withheld qubits."""

import functools
import itertools
import math

import mpmath
import numpy as np
import pytest

from qotlab import attacks, rot
from qotlab.attacks import (
    CheatReport,
    NoGoInstance,
    _p3_probe_tables,
    nogo_cheat_report,
    nogo_cheating_unitary,
    nogo_fidelity_gap,
    nogo_purifications,
    nogo_reduced_states,
    omission_attack_p5,
    p3_probe_detection_probability,
    p3_probe_pre_state,
    p4_probe_detection_probability,
    probe_attack_p3,
    probe_attack_p4,
    uhlmann_overlap,
)
from qotlab.bitcommit import (
    PROTOCOL_P5,
    P5OpenMessage,
    P5ReceiverState,
    blinding_angles,
    p3_bases,
    p3_pair_states,
    p5_verify,
    parity_function,
)
from qotlab.ot12 import wilson_interval
from qotlab.qsim import (
    DensityMatrix,
    RngStream,
    born_probabilities,
    fidelity,
    make_nonorthogonal_pair,
)
from qotlab.qsim import states
from qotlab.rot import PERP_INDEX, encoding_amps, honest_draws
import rotation_route
from rotation_route import (
    blinded_amps,
    probed_probabilities,
    reference_probe_attack_p4,
    unblind_and_measure,
)
from uhlmann_route import svd_cheating_unitary


def _pairwise_gram(amps: np.ndarray) -> np.ndarray:
    """amps @ amps.T summed pairwise over the columns: one matmul over all
    2^(N-1) columns rounds up to 1.6e-15 near the largest entries (2k = 8,
    theta = 0.05), this stays below 6e-16."""
    if amps.shape[1] <= 16:
        return amps @ amps.T
    half = amps.shape[1] // 2
    return _pairwise_gram(amps[:, :half]) + _pairwise_gram(amps[:, half:])


def nogo_fidelity(inst):
    """The eigen route: the two parity states as density matrices, compared
    by qsim.fidelity; the report's purification route must agree with it."""
    rho0, rho1 = nogo_reduced_states(inst)
    return fidelity(rho0, rho1)


def exact_fidelity_gap(two_k, theta):
    """F and g = 1 - F from the block sums at 60 digits, at the float theta."""
    with mpmath.workdps(60):
        t = mpmath.mpf(theta)
        c2, s2 = mpmath.cos(t / 2) ** 2, mpmath.sin(t / 2) ** 2
        terms = [
            (mpmath.binomial(two_k, h) * c2 ** (two_k - h) * s2**h,
             mpmath.binomial(two_k, h) * c2**h * s2 ** (two_k - h))
            for h in range(two_k + 1)
        ]
        f = mpmath.fsum(abs(a - b) for a, b in terms) / 2
        g = mpmath.fsum(min(a, b) for a, b in terms)
        return f, g


def lifted_rotation(rotation, parity_amps, eigen_amps):
    """The rotation of the parity purifications' ancilla carried onto the
    eigen route's: eigen_amps[p] = parity_amps[p] @ R_p with R_p R_p^T = I,
    so R_1^T W R_0 attains on the eigen route what W attains on the parity
    route."""
    r0, r1 = (np.linalg.lstsq(a, e, rcond=None)[0] for a, e in zip(parity_amps, eigen_amps))
    return r1.T @ rotation @ r0


def statevector_purifications(inst):
    """The parity purifications built from make_nonorthogonal_pair's
    validated states, with each string's parity counted bit by bit."""
    pair = np.stack([psi.amps.real for psi in make_nonorthogonal_pair(inst.theta)], axis=1)
    products = attacks._tensor_power(pair, inst.two_k)
    odd = np.array([bin(s).count("1") % 2 == 1 for s in range(2**inst.two_k)])
    scale = 2.0 ** (-(inst.two_k - 1) / 2)
    return products[:, ~odd] * scale, products[:, odd] * scale


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

    @pytest.mark.parametrize("two_k", [2, 4, 6, 8, 10])
    def test_optimal_rotation_achieves_the_fidelity(self, two_k):
        """The two routes to the overlap agree: trace-norm fidelity and the
        explicitly constructed ancilla rotation."""
        inst = NoGoInstance(two_k)
        rho0, rho1 = nogo_reduced_states(inst)
        amps0, amps1 = rho0.purification_amps, rho1.purification_amps
        unitary, singular_sum = svd_cheating_unitary(amps0, amps1)
        achieved = uhlmann_overlap(amps0, amps1, unitary)
        assert achieved == pytest.approx(fidelity(rho0, rho1), abs=1e-8)
        # the same cross-Gram matrix, transposed
        assert singular_sum == pytest.approx(fidelity(rho0, rho1), rel=0, abs=1e-12)

    @pytest.mark.parametrize(
        "two_k, theta",
        [(two_k, theta) for two_k in (2, 4, 6, 8) for theta in (0.05, 0.3, np.pi / 4, 1.2)]
        + [(10, 0.05), (10, 0.3), (10, np.pi / 4)],
    )
    def test_both_routes_match_the_block_closed_form(self, two_k, theta):
        """In the eigenbasis of the mean state, each parity state splits into
        rank-one 2x2 blocks on complementary words, so
        F = 1/2 sum_h C(N, h) |a_h - b_h| with a_h = c^(2(N-h)) s^(2h),
        b_h = c^(2h) s^(2(N-h)), c = cos(theta/2), s = sin(theta/2). At small
        theta many terms are far below 1e-6 and must all be kept. The eigen
        route and the report's parity purifications both meet it, and the
        purifications reduce to the eigen route's states."""
        c2, s2 = math.cos(theta / 2) ** 2, math.sin(theta / 2) ** 2
        closed = 0.5 * sum(
            math.comb(two_k, h) * abs(c2 ** (two_k - h) * s2**h - c2**h * s2 ** (two_k - h))
            for h in range(two_k + 1)
        )
        inst = NoGoInstance(two_k, theta=theta)
        rho0, rho1 = nogo_reduced_states(inst)
        assert fidelity(rho0, rho1) == pytest.approx(closed, rel=0, abs=1e-12)
        amps0, amps1 = rho0.purification_amps, rho1.purification_amps
        unitary, _ = svd_cheating_unitary(amps0, amps1)
        overlap = uhlmann_overlap(amps0, amps1, unitary)
        assert overlap == pytest.approx(closed, rel=0, abs=1e-12)
        report = nogo_cheat_report(inst)
        assert report.fidelity == pytest.approx(closed, rel=0, abs=1e-12)
        assert report.achieved_overlap == pytest.approx(closed, rel=0, abs=1e-12)
        for amps, rho in zip(nogo_purifications(inst), (rho0, rho1)):
            np.testing.assert_allclose(_pairwise_gram(amps), rho.entries, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("two_k", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("theta", [0.05, 0.3, 0.4, np.pi / 4, 1.0, 1.2, np.pi / 2])
    def test_report_detection_meets_the_closed_form_to_relative_1e_12(self, two_k, theta):
        """Detection is 1 - F^2 = g(2 - g) with the gap g = 1 - F =
        sum_h C(N, h) min(a_h, b_h), a sum of positive terms. The report
        forms it from the summed gap, so it is accurate in relative terms,
        not only in absolute ones: at 2k = 10, theta = 0.05 it is 4.79e-14,
        where 1 - overlap^2 in float64 is off by about 4e-15. F is summed
        from its own terms to a few ulp (7 at most here; the SVD route
        reached 52)."""
        f, g = exact_fidelity_gap(two_k, theta)
        report = nogo_cheat_report(NoGoInstance(two_k, theta=theta))
        assert report.detection_probability == pytest.approx(float(g * (2 - g)), rel=1e-12, abs=0)
        assert report.fidelity == pytest.approx(float(f), rel=0, abs=1e-15)

    @pytest.mark.parametrize("two_k", [2, 4, 10, 80, 200])
    @pytest.mark.parametrize("theta", [0.05, 0.3, np.pi / 4, 1.2, np.pi / 2])
    def test_the_closed_form_sums_any_even_size_without_underflow(self, two_k, theta):
        """F and g each meet the block sums from their own terms, beyond the
        dense cap too: at 2k = 200, theta = pi/4 the gap is about 6e-32,
        where 1 - F in float64 would read 0, and terms such as
        sin(0.025)**400 would underflow as floats. F near 1 is good to the
        rounding of cos(theta/2) raised to the 2N-th power (about 2e-14 at
        2k = 200), and never exceeds 1."""
        f, g = exact_fidelity_gap(two_k, theta)
        got_f, got_g = nogo_fidelity_gap(two_k, theta)
        assert got_g == pytest.approx(float(g), rel=1e-12, abs=0)
        assert got_f == pytest.approx(float(f), rel=0, abs=1e-13)
        assert 0.0 <= got_f <= 1.0

    def test_the_report_needs_no_numpy_2_function(self, monkeypatch):
        """The package supports NumPy 1.24: the rotation counts bits from a
        cached table, not with np.bitwise_count (NumPy 2.0 on)."""
        expected = nogo_cheating_unitary(6).copy()
        monkeypatch.delattr(np, "bitwise_count", raising=False)
        cached_tables = (attacks._bit_counts, attacks._parity_columns, attacks._parity_positions)
        for cached in (nogo_cheating_unitary, *cached_tables):
            cached.cache_clear()
        np.testing.assert_array_equal(nogo_cheating_unitary(6), expected)
        report = nogo_cheat_report(NoGoInstance(6))
        assert report.achieved_overlap == pytest.approx(report.fidelity, rel=0, abs=1e-12)

    @pytest.mark.parametrize("num_bits", [1, 2, 5, 10])
    def test_the_bit_count_table_counts_each_string(self, num_bits):
        counts = attacks._bit_counts(num_bits)
        assert counts.tolist() == [bin(s).count("1") for s in range(2**num_bits)]
        assert not counts.flags.writeable
        even, odd = attacks._parity_columns(num_bits)
        assert even.tolist() == [s for s, c in enumerate(counts.tolist()) if c % 2 == 0]
        assert odd.tolist() == [s for s, c in enumerate(counts.tolist()) if c % 2 == 1]
        assert not even.flags.writeable and not odd.flags.writeable
        assert not any(p.flags.writeable for p in attacks._parity_positions(num_bits))

    @pytest.mark.parametrize("theta", [0.0125, 0.3, np.pi / 4, 1.2, np.pi / 2])
    def test_the_tensor_power_is_the_kron_fold_bit_for_bit(self, theta):
        """Built front to back, the power multiplies each entry's factors in
        np.kron's order, so no entry differs by even an ulp."""
        pair = encoding_amps(theta).T.real
        for n in range(1, 11):
            want = functools.reduce(np.kron, [pair] * n)
            assert np.array_equal(attacks._tensor_power(pair, n), want), (n, theta)

    @pytest.mark.parametrize("two_k", [2, 4, 6, 8, 10])
    def test_identical_coding_states_leave_nothing_to_detect(self, two_k):
        """At theta = 0, where log sin(theta/2) is undefined, both
        commitments are one pure state."""
        report = nogo_cheat_report(NoGoInstance(two_k, theta=0.0))
        assert (report.fidelity, report.detection_probability) == (1.0, 0.0)
        assert report.achieved_overlap == pytest.approx(1.0, rel=0, abs=1e-14)

    @pytest.mark.parametrize("two_k", [2, 4, 6, 8, 10])
    def test_orthogonal_coding_states_give_a_fidelity_no_less_than_zero(self, two_k):
        """At theta = pi/2 the parity states are orthogonal up to cos(pi/2) =
        6e-17 in float64; F summed from its own terms is not negative, where
        1 - g read -8.9e-16."""
        report = nogo_cheat_report(NoGoInstance(two_k, theta=np.pi / 2))
        assert 0.0 <= report.fidelity < 1e-15
        assert report.achieved_overlap < 1e-15
        assert report.detection_probability == pytest.approx(1.0, rel=0, abs=1e-15)

    @pytest.mark.parametrize("two_k", [2, 4, 6, 8, 10])
    def test_the_rotation_is_one_orthogonal_matrix_per_size(self, two_k):
        """Built once per size, read-only and orthogonal; its entries are
        dyadic rationals, so it is orthogonal to rounding."""
        rotation = nogo_cheating_unitary(two_k)
        assert rotation is nogo_cheating_unitary(two_k)
        assert not rotation.flags.writeable
        assert rotation.shape == (2 ** (two_k - 1),) * 2
        np.testing.assert_allclose(rotation @ rotation.T, np.eye(len(rotation)), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("two_k", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("theta", [0.05, 0.3, 0.4, np.pi / 4, 1.0, 1.2, np.pi / 2])
    def test_the_rotation_attains_the_closed_form_on_both_routes(self, two_k, theta):
        """The one rotation, at every angle, attains the closed-form
        fidelity on the parity purifications and, carried across, on the
        eigen route's."""
        inst = NoGoInstance(two_k, theta=theta)
        f, _ = nogo_fidelity_gap(two_k, theta)
        rotation = nogo_cheating_unitary(two_k)
        parity_amps = nogo_purifications(inst)
        assert uhlmann_overlap(*parity_amps, rotation) == pytest.approx(f, rel=0, abs=1e-12)
        eigen_amps = tuple(rho.purification_amps for rho in nogo_reduced_states(inst))
        lifted = lifted_rotation(rotation, parity_amps, eigen_amps)
        assert uhlmann_overlap(*eigen_amps, lifted) == pytest.approx(f, rel=0, abs=1e-12)

    @pytest.mark.parametrize("two_k", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("theta", [0.05, 0.3, np.pi / 4, 1.2])
    def test_the_rotation_agrees_with_the_svd_route(self, two_k, theta):
        """Both rotations turn the cross-Gram matrix M into the same positive
        semidefinite matrix. They may differ only on M's null space (the
        words of weight N/2, where a_h = b_h), which M never reaches."""
        amps0, amps1 = nogo_purifications(NoGoInstance(two_k, theta=theta))
        cross_gram = amps0.T @ amps1
        reference, singular_sum = svd_cheating_unitary(amps0, amps1)
        turned = nogo_cheating_unitary(two_k) @ cross_gram
        np.testing.assert_allclose(turned, reference @ cross_gram, rtol=0, atol=1e-15)
        np.testing.assert_allclose(turned, turned.T, rtol=0, atol=1e-15)
        assert np.linalg.eigvalsh(turned).min() > -1e-15
        assert singular_sum == pytest.approx(nogo_fidelity_gap(two_k, theta)[0], rel=0, abs=1e-13)

    def test_a_report_decomposes_nothing(self, monkeypatch):
        """The report reads the closed form and a fixed rotation, built
        here afresh: no eigh and no svd. The reference route still makes
        one eigh per state, at construction, serving the positivity check
        and the purification; its fidelity reads the cached purifications
        and makes one svd."""
        calls = {"eigh": 0, "eigvalsh": 0, "svd": 0}
        for name in calls:
            real = getattr(np.linalg, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        inst = NoGoInstance(6)
        nogo_cheating_unitary.cache_clear()
        nogo_cheat_report(inst)
        assert calls == {"eigh": 0, "eigvalsh": 0, "svd": 0}
        rho0, rho1 = nogo_reduced_states(inst)
        assert calls == {"eigh": 2, "eigvalsh": 0, "svd": 0}
        calls["eigh"] = 0
        fidelity(rho0, rho1)
        assert calls == {"eigh": 0, "eigvalsh": 0, "svd": 1}

    @pytest.mark.parametrize("two_k", [2, 4, 6, 8, 10])
    @pytest.mark.parametrize("theta", [0.05, 0.3, np.pi / 4, 1.2, np.pi / 2])
    def test_purifications_read_the_cached_coding_pair(self, two_k, theta):
        """The pair cached for the channel tables and the parity mask cached
        per 2k give, bit for bit, the purifications built from the pair's
        validated states."""
        inst = NoGoInstance(two_k, theta=theta)
        for got, want in zip(nogo_purifications(inst), statevector_purifications(inst)):
            assert got.dtype == want.dtype == np.float64
            assert np.array_equal(got, want)

    def test_a_report_builds_no_state_vector(self, monkeypatch):
        """Once the channel tables have cached the pair for an angle, a
        report at that angle validates no state."""
        inst = NoGoInstance(6, theta=0.7)
        encoding_amps(inst.theta)
        built = 0
        real = states.StateVector.__post_init__

        def counted(self):
            nonlocal built
            built += 1
            real(self)

        monkeypatch.setattr(states.StateVector, "__post_init__", counted)
        nogo_cheat_report(inst)
        assert built == 0
        # the counter does see the validated route
        statevector_purifications(inst)
        assert built == 2

    def test_no_rotation_does_better_than_the_optimum(self):
        amps0, amps1 = nogo_purifications(NoGoInstance(4))
        best = uhlmann_overlap(amps0, amps1, nogo_cheating_unitary(4))
        rng = np.random.default_rng(99)
        dim = amps0.shape[1]
        for _ in range(10):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            q, _ = np.linalg.qr(raw)
            assert uhlmann_overlap(amps0, amps1, q) <= best + 1e-10

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
            a, b = (m.purification_amps for m in mats)
            unitary, _ = svd_cheating_unitary(a, b)
            assert uhlmann_overlap(a, b, unitary) == pytest.approx(fidelity(*mats), abs=1e-8)


def reference_probe_attack_p3(n: int, trials: int, rng: RngStream) -> np.ndarray:
    """The outcome-index kernel `probe_attack_p3` replaced: sample each
    qubit's outcome by inverse CDF, then look its (cell, outcome) up in the
    detection masks. Same draws, same order: one byte per cell, its two low
    bits the cell."""
    probs, masks = _p3_probe_tables()
    cum = np.cumsum(probs, axis=1)
    cells = np.frombuffer(rng.gen.bytes(trials * n), np.uint8).reshape(trials, n) % 4
    u = rng.gen.random(size=(trials, n))
    outcomes = np.zeros(cells.shape, dtype=np.intp)
    for j in range(cum.shape[1]):
        outcomes += u >= cum[:, j][cells]
    return masks.ravel()[cells * masks.shape[1] + outcomes]


class TestProbeCopies:
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
        probs, _ = _p3_probe_tables()
        for r in (0, 1):
            for x in (0, 1):
                expected = born_probabilities(attacked[r], bases[x], qubits=(0, 1))
                np.testing.assert_allclose(probs[2 * r + x], expected, atol=1e-12)

    def test_exact_outcome_table_values(self):
        probs, _ = _p3_probe_tables()  # row 2*r + x
        np.testing.assert_allclose(probs[0], [0.5, 0.5, 0, 0], atol=1e-12)
        np.testing.assert_allclose(probs[3], [0.5, 0, 0, 0.5], atol=1e-12)
        np.testing.assert_allclose(probs[1], [0.25, 0.25, 0.25, 0.25], atol=1e-12)
        np.testing.assert_allclose(probs[2], [0.25, 0.25, 0.25, 0.25], atol=1e-12)

    def test_detection_only_counts_honestly_impossible_outcomes(self):
        bases = p3_bases()
        honest = dict(enumerate(p3_pair_states()))
        probs, _ = _p3_probe_tables()
        for r in (0, 1):
            for x in (0, 1):
                table = probs[2 * r + x]
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

    def test_a_uniform_above_every_running_sum_is_the_last_outcome(self):
        """Every cell's running sums end just below 1, so a uniform can lie
        above all of them; like `inverse_cdf`, the probe then takes the
        cell's last outcome rather than reading past the cell's mask. The
        cells are the two low bits of the stream's bytes: each of the 256
        byte values gives its cell, 64 bytes to a cell."""
        probs, masks = _p3_probe_tables()
        last = np.nextafter(1.0, 0.0)
        assert (np.cumsum(probs, axis=1)[:, -1] <= last).all()

        class Draws:
            def bytes(self, length):
                return np.arange(length, dtype=np.uint8).tobytes()

            def random(self, size):
                return np.full(size, last)

        class Stream:
            gen = Draws()

        assert np.array_equal(probe_attack_p3(4, 1, Stream())[0], masks[:, -1])
        cells = np.arange(256) % 4
        assert np.array_equal(probe_attack_p3(64, 4, Stream()).ravel(), masks[cells, -1])

    @pytest.mark.parametrize("n, trials", [(8, 50), (8, 20000), (3, 1000)])
    def test_crossing_rule_matches_the_outcome_index(self, n, trials):
        for seed in range(3):
            got = probe_attack_p3(n, trials, RngStream(seed, 5))
            assert np.array_equal(got, reference_probe_attack_p3(n, trials, RngStream(seed, 5)))


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
        decoded = unblind_and_measure(blinded_amps(alphas, r), alphas, *honest_draws(rng, r.size))
        conclusive = decoded >= 0
        assert conclusive.any()
        assert np.array_equal(decoded[conclusive], r[conclusive])

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

    def test_perp_probability_is_the_closed_form(self):
        """The rotation route's perp probability, at every (r, x) over a grid
        of blinding angles, is 1/2 (1 - cos 2a cos(pi/2 (r - x) - 2a)); at
        x = r the sampler's running sum is one minus it, and the exact twin
        is its average over the uniform r and x."""
        alphas = np.linspace(0.0, 2 * np.pi, 721)
        twin = np.zeros_like(alphas)
        for r in (0, 1):
            for x in (0, 1):
                perp = probed_probabilities(alphas, np.full(alphas.shape, r), x)[:, PERP_INDEX]
                closed = (1 - np.cos(2 * alphas) * np.cos(np.pi / 2 * (r - x) - 2 * alphas)) / 2
                np.testing.assert_allclose(perp, closed, rtol=0, atol=1e-15)
                if x == r:
                    np.testing.assert_allclose(
                        1 - perp, (1 + np.cos(2 * alphas) ** 2) / 2, rtol=0, atol=1e-15
                    )
                    twin += perp / 4
        np.testing.assert_allclose(
            p4_probe_detection_probability(alphas), twin, rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize("n", [1, 3, 4, 8])
    def test_closed_form_grid_is_the_rotation_route_draw_for_draw(self, n):
        for seed in range(4):
            got = probe_attack_p4(n, 500, RngStream(seed, 9))
            want = reference_probe_attack_p4(n, 500, RngStream(seed, 9))
            assert np.array_equal(got, want)

    def test_the_campaign_runs_no_engine(self, monkeypatch):
        """The campaign reads its closed form: no rotation, probe copy or
        Born step; the rotation route makes each of them."""
        calls = {}
        for module, name in (
            (rotation_route, "rotate_rows"),
            (rotation_route, "entangle_probe_rows"),
            (rotation_route, "batch_probabilities"),
            (rot, "batch_probabilities"),
        ):
            calls[name] = 0
            real = getattr(module, name)

            def counted(*args, _name=name, _real=real, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        probe_attack_p4(4, 25, RngStream(5, 0))
        p4_probe_detection_probability(2 * np.pi * np.arange(8) / 8)
        assert set(calls.values()) == {0}
        reference_probe_attack_p4(4, 25, RngStream(5, 0))
        assert 0 not in calls.values()


def reference_omission_trial(n: int, m: int, perfect_detectors: bool, rng: RngStream, flip=None):
    """One omission trial measured and verified on its own, as
    `omission_attack_p5` ran each trial before the trials shared one pass:
    the trial's decoded grid and its (detected, open 0 accepted, open 1
    accepted) outcome. `flip`, a (row, column) cell, has its decoded bit
    flipped before the openings are verified."""
    withheld = rng.gen.integers(0, n, size=m)
    sent_bits = rng.bits(m * n).reshape(m, n)
    alphas = blinding_angles(rng, (m, n))
    present = np.arange(n) != withheld[:, np.newaxis]
    amps = blinded_amps(alphas, sent_bits)
    decoded = np.full((m, n), -1, dtype=np.int8)
    x, u = honest_draws(rng, int(present.sum()))
    decoded[present] = unblind_and_measure(amps[present], alphas[present], x, u)
    if flip is not None:
        decoded[flip] ^= 1
    if perfect_detectors:
        return decoded, (bool((~present).any()), False, False)
    function = parity_function(n)
    receiver = P5ReceiverState(protocol_id=PROTOCOL_P5, function=function, decoded=decoded)
    accepted = {}
    for target in (0, 1):
        strings = []
        for i in range(m):
            declared = sent_bits[i].tolist()
            w = int(withheld[i])
            partial = (sum(declared) - declared[w]) & 1
            declared[w] = partial ^ target
            strings.append(tuple(declared))
        msg = P5OpenMessage(protocol_id=PROTOCOL_P5, bit=target, strings=tuple(strings))
        accepted[target] = p5_verify(receiver, msg).accepted
    return decoded, (False, accepted[0], accepted[1])


class TestStackedOmissionPass:
    """The omission campaign measures every trial's grid in one pass; the
    golden digests cannot see its sampling, since its rows are 0 or 1 by
    construction, so the grids are compared here draw for draw. With
    perfect detectors the missing clicks reject every commit, and nothing
    is measured."""

    @pytest.mark.parametrize("perfect", [False, True])
    @pytest.mark.parametrize("trials", [1, 8])
    @pytest.mark.parametrize("n, m", [(8, 3), (2, 1), (5, 4)])
    def test_grids_equal_the_per_trial_reference(self, monkeypatch, perfect, trials, n, m):
        passes = []
        measure = attacks.p5_measure_record

        def kept(*args):
            passes.append(measure(*args))
            return passes[-1]

        monkeypatch.setattr(attacks, "p5_measure_record", kept)
        for seed in (0, 5, 901):
            passes.clear()
            report = omission_attack_p5(n, m, trials, perfect, RngStream(seed, 7))
            camp = RngStream(seed, 7)
            refs = [reference_omission_trial(n, m, perfect, camp.substream(t)) for t in range(trials)]
            if perfect:
                assert passes == []
            else:
                (stacked,) = passes
                np.testing.assert_array_equal(stacked, np.concatenate([r[0] for r in refs]))
            assert np.array_equal(np.array(report).T, [r[1] for r in refs])

    def test_each_target_is_verified_once(self, monkeypatch):
        """Every check of `p5_verify` reads one string or one cell, so one
        call on the stacked grid answers a target for every trial."""
        calls = []
        verify = attacks.p5_verify

        def counted(*args):
            calls.append(verify(*args))
            return calls[-1]

        monkeypatch.setattr(attacks, "p5_verify", counted)
        report = omission_attack_p5(8, 3, 8, False, RngStream(7, 7))
        assert len(calls) == 2
        assert report.succeeded.all()

    @pytest.mark.parametrize("seed", [0, 901])
    @pytest.mark.parametrize("trials, chosen", [(8, 0), (8, 5), (1, 0)])
    def test_a_rejected_stacked_opening_falls_back_to_each_trial(
        self, monkeypatch, seed, trials, chosen
    ):
        """One trial's decoded grid gets a contradicted cell: the stacked
        opening then fails for both targets, and each trial is verified on
        its own, giving the report the per-trial reference gives."""
        n, m = 8, 3
        measure, verify = attacks.p5_measure_record, attacks.p5_verify
        flipped, calls = [], []

        def tampered(*args):
            decoded = measure(*args).copy()
            rows = slice(chosen * m, (chosen + 1) * m)
            i, j = np.argwhere(decoded[rows] >= 0)[0]
            decoded[chosen * m + i, j] ^= 1
            flipped.append((i, j))
            return decoded

        def counted(*args):
            calls.append(verify(*args))
            return calls[-1]

        monkeypatch.setattr(attacks, "p5_measure_record", tampered)
        monkeypatch.setattr(attacks, "p5_verify", counted)
        report = omission_attack_p5(n, m, trials, False, RngStream(seed, 7))
        camp = RngStream(seed, 7)
        refs = [
            reference_omission_trial(
                n, m, False, camp.substream(t), flipped[0] if t == chosen else None
            )[1]
            for t in range(trials)
        ]
        assert np.array(report).T.tolist() == [list(r) for r in refs]
        assert refs[chosen] == (False, False, False)
        assert all(r == (False, True, True) for t, r in enumerate(refs) if t != chosen)
        assert len(calls) == 2 + 2 * trials
        assert not calls[0].accepted and calls[0].first_inconsistency.startswith(
            f"qubit ({chosen * m + flipped[0][0] + 1},"
        )

    def test_a_trial_count_below_one_is_refused(self):
        for trials in (0, -1):
            with pytest.raises(ValueError, match="trial count"):
                omission_attack_p5(8, 3, trials, False, RngStream(70, 0))


class TestWithheldQubits:
    def test_perfect_detectors_catch_the_gap_at_commit(self):
        report = omission_attack_p5(6, 3, 20, True, RngStream(66, 0))
        assert report.detected_at_commit.all()
        assert not report.open_zero_accepted.any()
        assert not report.open_one_accepted.any()
        assert not report.succeeded.any()

    def test_lossy_detectors_let_both_openings_pass(self):
        report = omission_attack_p5(6, 3, 20, False, RngStream(67, 0))
        assert not report.detected_at_commit.any()
        assert report.open_zero_accepted.all()
        assert report.open_one_accepted.all()
        assert report.succeeded.all()

    def test_minimal_grid(self):
        report = omission_attack_p5(2, 1, 1, False, RngStream(68, 0))
        assert report.succeeded.all()

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            omission_attack_p5(1, 3, 1, False, RngStream(69, 0))
        with pytest.raises(ValueError):
            omission_attack_p5(4, 0, 1, False, RngStream(69, 1))


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
