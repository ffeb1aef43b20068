"""One-out-of-two transfer built on the random-transfer rounds."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from qotlab import ot12
from qotlab.ot12 import (
    BASE_RATE,
    TAIL_LOG_MARGIN,
    USD,
    _log_pmf,
    _tail_window,
    binomial_tail,
    choose_index_sets,
    k_of,
    p1_exact,
    p2_exact,
    receiver_decrypt,
    run_masked_transfer,
    run_ot12,
    sender_encrypt,
    transfer_k,
    wilson_interval,
)
from qotlab.qsim import RngStream
from qotlab.rot import HONEST, ReceiverRecord


def test_k_of_reference_values():
    assert k_of(16) == 3
    assert k_of(64) == 12
    assert k_of(256) == 48
    assert k_of(1024) == 192


def test_k_of_is_exact_rational_arithmetic():
    # 3/16 of a huge n must not pick up float truncation error
    n = 16 * 10**15 + 15
    assert k_of(n) == (3 * n) // 16
    assert k_of(32, alpha=Fraction(1, 8)) == 4


def test_k_of_rejects_bad_arguments():
    assert k_of(0) == 0
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        k_of(-1)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        k_of(-1, Fraction(1, 2))  # n is checked before alpha


@pytest.mark.parametrize("alpha", ["1/16", "1/32", "3/16", "1/5"])
def test_k_of_is_the_floor_of_the_rational_product(alpha):
    """The integer route against the Fraction product it replaced, with alpha
    as a Fraction and in the CLI's string form."""
    for given in (Fraction(alpha), alpha):
        for n in [*range(4097), 10**5, 10**6]:
            assert k_of(n, given) == int((BASE_RATE - Fraction(alpha)) * n)


# Fraction(1, 4) leaves no conclusive margin
@pytest.mark.parametrize("alpha", [Fraction(0), Fraction(-1, 16), "0", Fraction(1, 4), "1/4", Fraction(1, 2)])
def test_k_of_refuses_an_alpha_outside_the_margin(alpha):
    with pytest.raises(ValueError, match="^alpha must lie strictly between 0 and the base rate$"):
        k_of(64, alpha)


def lgamma_log_terms(n, p, first, last):
    """log P[Binomial(n, p) = j] for j from first to last, each from lgamma."""
    log_n_fact = math.lgamma(n + 1)
    return [
        log_n_fact
        - math.lgamma(j + 1)
        - math.lgamma(n - j + 1)
        + j * math.log(p)
        + (n - j) * math.log1p(-p)
        for j in range(first, last + 1)
    ]


def full_sum_tail(n, p, threshold):
    """Reference tail: every term from threshold to n, each from lgamma."""
    if threshold <= 0:
        return 1.0
    if threshold > n or p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    logs = lgamma_log_terms(n, p, threshold, n)
    peak = max(logs)
    total = math.exp(peak) * math.fsum(math.exp(l - peak) for l in logs)
    return min(1.0, max(0.0, total))


def bisected_tail_window(n, p, threshold, log_pmf=_log_pmf):
    """Reference window: both ends found by bisecting on the saddle-point
    log pmf itself, up to 27 calls a tail where `_tail_window` makes at
    most 5. `log_pmf` may be a table of the same saddle-point values."""
    top = max(threshold, min(n, math.floor((n + 1) * p)))
    log_top = log_pmf(n, top, p)
    cut = log_top - TAIL_LOG_MARGIN - math.log(n + 1)

    def edge(inside, outside):
        # the term at `inside` clears the cut: the farthest one towards `outside` that does
        if log_pmf(n, outside, p) >= cut:
            return outside
        while abs(outside - inside) > 1:
            mid = (inside + outside) // 2
            if log_pmf(n, mid, p) >= cut:
                inside = mid
            else:
                outside = mid
        return inside

    return edge(top, threshold), top, edge(top, n), log_top


_ANGLES = (0.3, np.pi / 4, 1.2)
TAIL_RATES = (
    (0.25, 0.01, 0.9)
    + tuple(1 - math.cos(t) for t in _ANGLES)
    + tuple(math.sin(t) ** 2 / 2 for t in _ANGLES)
)


def tail_thresholds(n, p):
    k = k_of(n)
    return sorted({k, 2 * k, 1, math.floor(n * p), n})


def assert_tails_match(n_values, rtol=1e-10):
    """Windowed tail against the full sum and scipy, relative to rtol; values
    below the normal range (about 2e-308) compare absolutely."""
    floor = np.finfo(float).tiny
    for n in n_values:
        for p in TAIL_RATES:
            for t in tail_thresholds(n, p):
                got = binomial_tail(n, p, t)
                for want in (full_sum_tail(n, p, t), float(scipy.stats.binom.sf(t - 1, n, p))):
                    assert abs(got - want) <= rtol * want + floor, (n, p, t, got, want)


class TestWindowedTail:
    def test_matches_full_sum_and_scipy_for_small_n(self):
        assert_tails_match(list(range(1, 301)) + [512, 1024])

    def test_matches_full_sum_and_scipy_near_the_benchmark_n(self):
        assert_tails_match([18000, 19321, 20480, 22000])

    def test_matches_full_sum_at_large_n(self):
        n = 10**5
        for p, t in ((0.25, 25000), (0.25, 26000), (0.01, 1200), (1 - math.cos(0.3), 4400)):
            want = full_sum_tail(n, p, t)
            assert 1e-30 < want < 1.0
            assert binomial_tail(n, p, t) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("n,p,t", [(400, 0.25, 75), (5000, 0.3, 1600), (20000, 0.25, 3750), (3000, 0.9, 1)])
    def test_dropped_terms_weigh_less_than_the_bound(self, n, p, t):
        lo, top, hi, _ = _tail_window(n, p, t)
        assert t <= lo <= top <= hi <= n
        assert (lo, hi) != (t, n), "the window should drop terms here"
        outside = lgamma_log_terms(n, p, t, lo - 1) + lgamma_log_terms(n, p, hi + 1, n)
        dropped = math.fsum(math.exp(l) for l in outside)
        assert 0.0 < dropped <= math.exp(-TAIL_LOG_MARGIN) * binomial_tail(n, p, t)

    def test_window_ends_are_the_last_terms_above_the_cut(self):
        n, p, t = 20000, 0.25, 3750
        lo, top, hi, log_top = _tail_window(n, p, t)

        def log_pmf(j):
            with mpmath.workdps(40):
                q = mpmath.mpf(p)
                return float(
                    mpmath.log(mpmath.binomial(n, j)) + j * mpmath.log(q) + (n - j) * mpmath.log(1 - q)
                )

        cut = log_top - TAIL_LOG_MARGIN - math.log(n + 1)
        assert log_pmf(lo) >= cut > log_pmf(lo - 1)
        assert log_pmf(hi) >= cut > log_pmf(hi + 1)
        # the saddle-point anchor keeps full relative accuracy at the mode
        assert log_top == pytest.approx(log_pmf(top), rel=1e-15, abs=0)


# rates where the window search must agree with bisection: near 0 and 1,
# the honest rate at pi/4 and at 0.5, the discriminating rate at pi/4, and 3/4
WINDOW_RATES = (1e-3, 0.25, 1 - math.cos(math.pi / 4), math.sin(0.5) ** 2 / 2, 0.75, 0.999)


class TestTailWindow:
    """The bracket-and-confirm search against bisection on the saddle-point
    form: the same (lo, top, hi, log_top), so every summed tail is the same."""

    @pytest.mark.parametrize("p", WINDOW_RATES)
    def test_every_threshold_up_to_400(self, p):
        for n in range(1, 401):
            logs = [_log_pmf(n, j, p) for j in range(n + 1)]

            def table(n_, j, p_):
                return logs[j]

            for t in range(1, n + 1):
                assert _tail_window(n, p, t) == bisected_tail_window(n, p, t, table), (n, p, t)

    @pytest.mark.parametrize("n", [1024, 20000, 10**6])
    @pytest.mark.parametrize("p", WINDOW_RATES)
    def test_large_n(self, n, p):
        mode = math.floor((n + 1) * p)
        spread = math.isqrt(n) + 1
        thresholds = {1, 2, n - 1, n, k_of(n), 2 * k_of(n), mode - 1, mode, mode + 1}
        thresholds |= {mode + d * spread for d in (-40, -12, -3, 3, 12, 40)}
        thresholds |= set(range(1, n + 1, max(1, n // 97)))
        for t in sorted(x for x in thresholds if 1 <= x <= n):
            assert _tail_window(n, p, t) == bisected_tail_window(n, p, t), (n, p, t)

    @pytest.mark.parametrize(
        "n, p",
        [
            # the lgamma form puts hi one term too far out, one term too far
            # in, and lo one term too far out; the saddle-point steps mend each
            (3110637553, 0.9763568732497784),
            (2186907850, 0.4410426548697187),
            (19491389930, 0.50412130590277),
        ],
    )
    def test_rounding_in_the_lgamma_form_is_confirmed_away(self, n, p):
        assert _tail_window(n, p, 1) == bisected_tail_window(n, p, 1)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        case=st.integers(1, 10**6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.floats(1e-6, 1 - 1e-6),
                st.integers(1, n),
            )
        )
    )
    def test_any_tail(self, case):
        n, p, t = case
        assert _tail_window(n, p, t) == bisected_tail_window(n, p, t)

    @pytest.mark.parametrize("n", [64, 1024, 20000])
    def test_a_tail_makes_at_most_six_saddle_point_calls(self, n, monkeypatch):
        """One call for top and at most two for each end, where bisecting on
        the saddle-point form made 8/8, 13/12 and 27/16 for p1/p2."""
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return _log_pmf(*args)

        monkeypatch.setattr(ot12, "_log_pmf", counted)
        for tail in (p1_exact, p2_exact):
            calls = 0
            tail(n)
            assert 3 <= calls <= 6, (tail.__name__, n, calls)


class TestTailProbabilities:
    def test_binomial_tail_against_direct_sum(self):
        n, p, k = 16, 0.25, 3
        expected = sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k, n + 1))
        assert binomial_tail(n, p, k) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n,p,k", [(64, 0.25, 12), (256, 0.25, 48), (100, 0.03, 50), (1024, 1 - np.sqrt(2) / 2, 384)])
    def test_binomial_tail_against_scipy(self, n, p, k):
        assert binomial_tail(n, p, k) == pytest.approx(scipy.stats.binom.sf(k - 1, n, p), rel=1e-10)

    def test_near_certain_tail_stays_a_probability(self):
        # the log-space sum rounds to 1 + 7.5e-14 here unless clamped
        p1 = p1_exact(20000).value
        assert 0.0 <= p1 <= 1.0
        assert p1 == pytest.approx(1.0, abs=1e-12)
        assert 1.0 - p1 >= 0.0

    def test_binomial_tail_edge_thresholds(self):
        assert binomial_tail(10, 0.3, 0) == pytest.approx(1.0, abs=1e-15)
        assert binomial_tail(10, 0.3, 11) == 0.0

    def test_p1_counts_honest_conclusive_successes(self):
        n = 64
        assert p1_exact(n).value == pytest.approx(
            scipy.stats.binom.sf(k_of(n) - 1, n, 0.25), rel=1e-10
        )

    @pytest.mark.parametrize("theta", [0.3, 0.5, 1.2, np.pi / 2])
    def test_p1_sums_at_the_honest_rate_of_theta(self, theta):
        n = 256
        rate = math.sin(theta) ** 2 / 2
        assert p1_exact(n, theta=theta).value == pytest.approx(
            scipy.stats.binom.sf(k_of(n) - 1, n, rate), rel=1e-10
        )

    def test_p2_counts_optimal_attack_successes(self):
        n = 64
        q = 1 - np.sqrt(2) / 2
        assert p2_exact(n).value == pytest.approx(
            scipy.stats.binom.sf(2 * k_of(n) - 1, n, q), rel=1e-10
        )

    def test_p2_depends_on_the_overlap_angle(self):
        looser = p2_exact(64, theta=np.pi / 3)
        assert looser.value > p2_exact(64).value

    def test_tails_match_monte_carlo(self):
        n, trials = 64, 20_000
        rng = np.random.default_rng(314)
        k = k_of(n)
        hits1 = int((rng.binomial(n, 0.25, size=trials) >= k).sum())
        hits2 = int((rng.binomial(n, 1 - np.sqrt(2) / 2, size=trials) >= 2 * k).sum())
        for hits, exact in ((hits1, p1_exact(n).value), (hits2, p2_exact(n).value)):
            sigma = math.sqrt(exact * (1 - exact) / trials)
            assert abs(hits / trials - exact) < 3 * sigma


class TestEstimators:
    def test_wilson_interval_brackets_the_estimate(self):
        for successes, trials in ((0, 10), (10, 10), (1, 7), (500, 1000)):
            low, high = wilson_interval(successes, trials)
            phat = successes / trials
            assert 0.0 <= low <= phat <= high <= 1.0

    def test_wilson_interval_shrinks_with_trials(self):
        low1, high1 = wilson_interval(50, 100)
        low2, high2 = wilson_interval(5000, 10000)
        assert (high2 - low2) < (high1 - low1)


def make_record(n, conclusive, strategy=HONEST):
    return ReceiverRecord(
        strategy=strategy,
        basis_choices=np.zeros(n, dtype=np.int8),
        conclusive=tuple(conclusive),
    )


def draw_sets(record, k, rng):
    """The announcement drawn for a receiver record's decoded row."""
    return choose_index_sets(record.decoded.tolist(), k, rng, record.strategy)


class TestIndexSets:
    def test_too_few_conclusive_aborts(self):
        n, k = 64, k_of(64)
        record = make_record(n, [(pos, 0) for pos in range(1, k)])  # k-1 conclusive
        assert draw_sets(record, k, RngStream(1, 0)) is None

    def test_exactly_k_conclusive_succeeds(self):
        n, k = 64, k_of(64)
        record = make_record(n, [(pos, 0) for pos in range(1, k + 1)])
        sets = draw_sets(record, k, RngStream(1, 0))
        assert sets is not None
        assert set(sets.i_set) == set(range(1, k + 1))
        assert len(sets.j_set) == k
        assert not set(sets.i_set) & set(sets.j_set)
        assert sets.m in (0, 1)

    def test_sets_partition_known_and_unknown_positions(self):
        rng = RngStream(2, 0)
        t = run_ot12(64, 0, 1, HONEST, rng)
        assert not t.aborted
        conclusive = {pos for pos, _ in t.receiver.conclusive}
        assert set(t.sets.i_set) <= conclusive
        assert not set(t.sets.j_set) & conclusive
        assert len(t.sets.i_set) == len(t.sets.j_set) == k_of(64)

    def test_honest_j_is_topped_up_only_when_inconclusive_positions_run_out(self):
        n, k = 16, k_of(16)
        # 14 conclusive positions leave 2 inconclusive ones for a J of size 3
        record = make_record(n, [(pos, 0) for pos in range(1, 15)])
        for seed in range(20):
            sets = draw_sets(record, k, RngStream(5, seed))
            assert {15, 16} <= set(sets.j_set)
            assert len(sets.j_set) == k
            assert not set(sets.i_set) & set(sets.j_set)

    def test_runs_that_would_announce_empty_sets_are_refused(self):
        assert k_of(5) == 0
        refusal = r"^n=5 gives k=0 announced positions; the transfer needs k >= 1$"
        with pytest.raises(ValueError, match=refusal):
            run_ot12(5, 0, 1, HONEST, RngStream(6, 0))
        assert transfer_k(6) == 1

    def test_mapping_choice_is_balanced(self):
        n, k = 64, k_of(64)
        record = make_record(n, [(pos, 0) for pos in range(1, 2 * k)])
        trials = 4000
        ones = sum(
            draw_sets(record, k, RngStream(3, t)).m for t in range(trials)
        )
        sigma = math.sqrt(0.25 / trials)
        assert abs(ones / trials - 0.5) < 5 * sigma

    def test_prefer_conclusive_j_fills_both_sets_when_possible(self):
        n, k = 64, k_of(64)
        # the discriminating receiver draws J from its leftover conclusive positions
        record = make_record(n, [(pos, 0) for pos in range(1, 2 * k + 1)], strategy=USD)
        sets = draw_sets(record, k, RngStream(4, 0))
        conclusive = set(p for p, _ in record.conclusive)
        assert set(sets.i_set) <= conclusive
        assert set(sets.j_set) <= conclusive


def test_encrypt_decrypt_round_trip():
    bits = [1, 0, 1, 1, 0, 0, 1, 0]
    x_set, y_set = (1, 3, 5), (2, 4, 8)
    c0, c1 = sender_encrypt(bits, x_set, y_set, b0=1, b1=0)
    s_x = bits[0] ^ bits[2] ^ bits[4]
    s_y = bits[1] ^ bits[3] ^ bits[7]
    assert c0 == 1 ^ s_x
    assert c1 == 0 ^ s_y
    assert receiver_decrypt(c1, (bits[p - 1] for p in y_set)) == 0


def test_receiver_decrypt_requires_every_value():
    for values in ([1, None, 0], [1, -1, 0]):
        with pytest.raises(ValueError, match="missing conclusive value over I"):
            receiver_decrypt(0, values)


def test_the_tail_refuses_rows_of_another_length():
    for bits, decoded in (([0] * 5, [-1] * 6), ([0] * 6, [1] * 7)):
        with pytest.raises(ValueError, match="need n sent bits and n decoded cells"):
            run_masked_transfer(bits, decoded, 6, 1, 0, 1, RngStream(8, 0))


class TestFullRuns:
    def test_honest_run_recovers_the_chosen_secret(self):
        for trial in range(30):
            rng = RngStream(50 + trial, 0)
            b0, b1 = trial % 2, (trial // 2) % 2
            t = run_ot12(64, b0, b1, HONEST, rng)
            if t.aborted:
                assert t.b_received is None
                continue
            assert t.b_received == (b0, b1)[t.sets.m]
            # masks check out against the sender's actual bit string
            s_x = 0
            for p in t.sets.i_set if t.sets.m == 0 else t.sets.j_set:
                s_x ^= int(t.sender.bits[p - 1])
            assert t.c0 == (b0 ^ s_x)

    def test_abort_rate_tracks_the_exact_tail(self):
        n, runs = 64, 1500
        aborted = 0
        for trial in range(runs):
            t = run_ot12(n, 0, 0, HONEST, RngStream(60, trial))
            aborted += t.aborted
        expected = 1 - p1_exact(n).value
        sigma = math.sqrt(expected * (1 - expected) / runs)
        assert abs(aborted / runs - expected) < 4 * sigma

    def test_usd_rarely_learns_both_secrets(self):
        """Runs where even the j-set is fully conclusive happen at the exact rare rate."""
        n, runs = 64, 1500
        k = k_of(n)
        learned_both = 0
        for trial in range(runs):
            rng = RngStream(70, trial)
            t = run_ot12(n, 1, 1, USD, rng)
            if t.aborted:
                continue
            known = t.receiver.conclusive_map()
            if all(p in known for p in t.sets.i_set) and all(
                p in known for p in t.sets.j_set
            ):
                learned_both += 1
        expected = p2_exact(n).value
        sigma = math.sqrt(expected * (1 - expected) / runs)
        # with honest random set selection the both-known event is rarer than p2,
        # which counts conclusive >= 2k; only an upper bound is stable here
        assert learned_both / runs <= expected + 4 * sigma


class TestCurve:
    NS = (64, 128, 256, 512, 1024)

    def test_rows_and_monotonicity(self):
        assert [k_of(n) for n in self.NS] == [12, 24, 48, 96, 192]
        p1s = [p1_exact(n).value for n in self.NS]
        p2s = [p2_exact(n).value for n in self.NS]
        assert all(a < b for a, b in zip(p1s, p1s[1:]))
        assert all(a > b for a, b in zip(p2s, p2s[1:]))

    def test_attack_success_decays_exponentially(self):
        ns = np.array(self.NS, dtype=float)
        logs = np.log([p2_exact(n).value for n in self.NS])
        slope, intercept = np.polyfit(ns, logs, 1)
        fitted = slope * ns + intercept
        ss_res = float(np.sum((logs - fitted) ** 2))
        ss_tot = float(np.sum((logs - logs.mean()) ** 2))
        assert 1 - ss_res / ss_tot > 0.99
        assert slope < 0
