"""Cooperative fusion analytics tests.

The load-bearing oracle is brute-force enumeration over all 2^N local
decision vectors, which reproduces the binomial tail sums exactly; threshold
calibration is cross-checked against an independent bisection built on
scipy's binomial survival function.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import special, stats

from specsense.channel import AvgSnr
from specsense.detector import DetectorParams, avg_pd_numeric, calibrate_lambda, pf_single
from specsense.fusion import (
    FusionParams,
    binom_tail,
    calibrate_local_lambda_global,
    gains_coop,
    global_pf,
    global_pmd,
)
from tests.test_detector import exact_pmd_coefficient


def enumeration_oracle(n, n_vote, p):
    """Sum P(decision vector) over all 2^n vectors with >= n_vote votes."""
    total = 0.0
    for votes in itertools.product((0, 1), repeat=n):
        k = sum(votes)
        if k >= n_vote:
            total += p ** k * (1 - p) ** (n - k)
    return total


def make_params(n, n_vote, m, lam):
    return FusionParams(n_users=n, n_vote=n_vote, per_user=DetectorParams(m=m, lam=lam))


class TestBinomialKernels:
    def test_or_rule_complement(self):
        lam = calibrate_lambda(4, 0.1)  # local P_F = 0.1
        params = make_params(2, 1, 4, lam)
        assert global_pf(params) == pytest.approx(0.19, rel=1e-10)

    def test_and_rule(self):
        lam = calibrate_lambda(6, 0.2)
        params = make_params(5, 5, 6, lam)
        assert global_pf(params) == pytest.approx(0.2 ** 5, rel=1e-9)

    def test_enumeration_oracle(self):
        want = enumeration_oracle(10, 4, 0.2)
        assert binom_tail(10, 4, 0.2) == pytest.approx(want, abs=1e-12)

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(1, 12), st.data())
    def test_enumeration_equivalence(self, n, data):
        n_vote = data.draw(st.integers(1, n))
        p = data.draw(st.floats(0.0, 1.0))
        assert binom_tail(n, n_vote, p) == pytest.approx(
            enumeration_oracle(n, n_vote, p), abs=1e-12)

    @settings(max_examples=80, derandomize=True)
    @given(st.integers(1, 40), st.data())
    def test_tail_plus_lower_is_one(self, n, data):
        n_vote = data.draw(st.integers(1, n))
        p = data.draw(st.floats(0.0, 1.0))
        # Exact P(X <= n_vote - 1) for the double p, in rational arithmetic.
        q = Fraction(p)
        lower = sum(math.comb(n, k) * q ** k * (1 - q) ** (n - k)
                    for k in range(n_vote))
        assert binom_tail(n, n_vote, p) + float(lower) == (
            pytest.approx(1.0, abs=1e-12))

    def test_monotone_in_p_and_vote_threshold(self):
        ps = np.linspace(0.01, 0.99, 20)
        tails = [binom_tail(9, 4, float(p)) for p in ps]
        assert all(b > a for a, b in zip(tails, tails[1:]))
        by_vote = [binom_tail(9, k, 0.4) for k in range(1, 10)]
        assert all(b < a for a, b in zip(by_vote, by_vote[1:]))


class TestGlobalProbabilities:
    def test_single_user_degenerates(self):
        lam = calibrate_lambda(10, 0.05)
        params = make_params(1, 1, 10, lam)
        avg = AvgSnr(5.0)
        assert global_pmd(params, avg) == pytest.approx(
            1.0 - avg_pd_numeric(10, lam, avg), rel=1e-12)

    def test_certain_detection(self):
        assert binom_tail(7, 3, 1.0) == 1.0

    def test_global_pd_monte_carlo_oracle(self):
        from specsense.simkit import SchemeConfig, estimate_point
        lam = calibrate_lambda(10, 0.05)
        params = make_params(5, 2, 10, lam)
        want = global_pmd(params, 10.0)
        cfg = SchemeConfig.coop(5, 2, 10, lam, 10.0)
        est = estimate_point(cfg, "H1", 10 ** 6, seed=31)
        se = math.sqrt(want * (1 - want) / 10 ** 6)
        assert abs((1.0 - est.value) - want) <= 3 * se

    def test_pmd_single_survivor_term(self):
        # n = 1: only the all-miss vector survives
        lam = calibrate_lambda(10, 0.05)
        params = make_params(6, 1, 10, lam)
        avg = AvgSnr(2.0)
        md = 1.0 - avg_pd_numeric(10, lam, avg)
        assert global_pmd(params, avg) == pytest.approx(md ** 6, rel=1e-10)

    def test_pmd_complement_identity(self):
        lam = calibrate_lambda(12, 0.07)
        params = make_params(10, 3, 12, lam)
        avg = AvgSnr(5.0)
        pd_local = avg_pd_numeric(12, lam, avg)
        assert global_pmd(params, avg) == pytest.approx(
            1.0 - binom_tail(10, 3, pd_local), abs=1e-12)

    def test_pmd_hand_substitution(self):
        # N=4, n=2, local md=0.3: 0.3^4 + 4 * 0.3^3 * 0.7 = 0.0837
        md = 0.3
        value = md ** 4 + 4 * md ** 3 * (1 - md)
        assert value == pytest.approx(0.0837, rel=1e-12)
        assert 1.0 - binom_tail(4, 2, 1.0 - md) == pytest.approx(0.0837, rel=1e-10)


class TestGlobalCalibration:
    # With N = 1 the inverse beta returns alpha itself, so the threshold is
    # the single user's, bit for bit.
    def test_single_user_reduces_to_detector(self):
        for m in (1, 10, 1737):
            for alpha in (1e-6, 0.05, 0.9):
                assert calibrate_local_lambda_global(1, 1, m, alpha) == \
                    calibrate_lambda(m, alpha), (m, alpha)

    def test_or_rule_closed_form(self):
        lam = calibrate_local_lambda_global(10, 1, 10, 0.05)
        local = pf_single(10, lam)
        assert local == pytest.approx(1.0 - 0.95 ** 0.1, abs=1e-9)
        assert local == pytest.approx(0.0051162, abs=1e-7)

    def test_independent_bisection_oracle(self):
        n, n_vote, m, alpha = 10, 3, 10, 0.05

        def global_pf_scipy(p_local):
            return float(stats.binom.sf(n_vote - 1, n, p_local))

        lo, hi = 0.0, 1.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if global_pf_scipy(mid) > alpha:
                hi = mid
            else:
                lo = mid
        lam_oracle = 2.0 * float(special.gammainccinv(m, 0.5 * (lo + hi)))
        lam = calibrate_local_lambda_global(n, n_vote, m, alpha)
        assert lam == pytest.approx(lam_oracle, rel=1e-8)

    def test_achieves_alpha(self):
        for (n, n_vote, m, alpha) in ((10, 1, 10, 0.01), (5, 3, 8, 0.05),
                                      (12, 12, 4, 0.2)):
            lam = calibrate_local_lambda_global(n, n_vote, m, alpha)
            achieved = binom_tail(n, n_vote, pf_single(m, lam))
            assert abs(achieved - alpha) <= 1e-9


class TestGains:
    def test_or_rule_full_diversity(self):
        params = make_params(10, 1, 10, 10.0)
        g = gains_coop(params)
        assert g.diversity == 10.0
        assert g.coding_gain == pytest.approx(0.9)  # C(10,0)=1 -> (M-1)/lam

    def test_and_rule_no_diversity(self):
        params = make_params(5, 5, 10, 10.0)
        assert gains_coop(params).diversity == 1.0

    def test_slope_regression_oracle(self):
        lam = calibrate_local_lambda_global(3, 1, 8, 0.05)
        params = make_params(3, 1, 8, lam)
        gbs = np.geomspace(1e2, 1e4, 6)
        pmds = [global_pmd(params, float(g)) for g in gbs]
        slope = -np.polyfit(np.log10(gbs), np.log10(pmds), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.3)


class TestAsymptoticCoop:
    def test_two_user_or_rule_square(self):
        # OR rule, N = 2: both users must miss
        params = make_params(2, 1, 10, 10.0)
        x = 1.0 - avg_pd_numeric(10, 10.0, 50.0)
        assert global_pmd(params, 50.0) == pytest.approx(x ** 2, rel=1e-12)

    def test_offset_to_exact_average(self):
        # Per user the printed asymptote lam/(2 gb (M-1)) exceeds the exact
        # averaged miss by c/(c-1), c = lam/(2(M-1)) (the e^{1/gb} term it
        # drops), so the printed C(N, n-1) x^d, d = N-n+1, carries that
        # factor to the d-th power.  README records this offset.
        n, n_vote, m, alpha, gb = 3, 2, 10, 0.05, 1e4
        lam = calibrate_local_lambda_global(n, n_vote, m, alpha)
        params = make_params(n, n_vote, m, lam)
        d = n - n_vote + 1
        c = lam / (2.0 * (m - 1))
        printed = math.comb(n, n_vote - 1) * (lam / (2.0 * gb * (m - 1))) ** d
        expected = (c / exact_pmd_coefficient(m, lam)) ** d
        got = printed / global_pmd(params, gb)
        assert got == pytest.approx(expected, rel=0.05)


class TestCooperationTradeoff:
    def test_crossover_sign_check_nm100(self):
        # matched budget NM = 100 at alpha = 0.01: single user better at
        # -10 dB, OR-rule network better at +10 dB
        alpha = 0.01
        lam_su = calibrate_lambda(100, alpha)
        lam_mu = calibrate_local_lambda_global(10, 1, 10, alpha)
        coop = make_params(10, 1, 10, lam_mu)
        for snr_db, coop_wins in ((-10.0, False), (10.0, True)):
            avg = AvgSnr.from_db(snr_db)
            pmd_su = 1.0 - avg_pd_numeric(100, lam_su, avg)
            pmd_mu = global_pmd(coop, avg)
            assert (pmd_mu < pmd_su) == coop_wins


class TestValidation:
    def test_vote_threshold_range(self):
        with pytest.raises(ValueError):
            make_params(4, 0, 10, 10.0)
        with pytest.raises(ValueError):
            make_params(4, 5, 10, 10.0)

    def test_gains_need_two_samples(self):
        with pytest.raises(ValueError):
            gains_coop(make_params(4, 1, 1, 10.0))

    def test_bad_probability(self):
        with pytest.raises(ValueError):
            binom_tail(5, 2, 1.2)
