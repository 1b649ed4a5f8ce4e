"""Single-user energy-detection analytics tests.

The Monte Carlo cross-checks go through the simulation engine at fixed
seeds; the averaged-detection quadrature is checked against an
integration-by-parts identity that gives the exact high-SNR coefficient
of the missed-detection probability:

    gamma_bar * pmd -> (lam/2) P(M-1, lam/2) / (M-1) - P(M, lam/2)

which also exposes the constant offset of the classical lam/(2 gb (M-1))
asymptote (that form keeps only the Bessel-series term and drops the
e^{1/gb} factor's first-order contribution).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specsense.detector import (
    DetectorParams,
    GainSummary,
    avg_pd_closed,
    avg_pd_numeric,
    calibrate_lambda,
    gains_single,
    pd_single,
    pf_single,
)
from specsense.simkit import SchemeConfig, estimate_point
from specsense.specfun import reg_lower_gamma, reg_upper_gamma


def exact_pmd_coefficient(m, lam):
    """gamma_bar * pmd limit via integration by parts (independent oracle)."""
    half = lam / 2.0
    return half * reg_lower_gamma(m - 1.0, half) / (m - 1.0) - reg_lower_gamma(
        float(m), half)


class TestParams:
    def test_calibrated_constructor(self):
        p = DetectorParams(m=25, lam=calibrate_lambda(25, 0.01))
        assert pf_single(p.m, p.lam) == pytest.approx(0.01, abs=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorParams(m=0, lam=1.0)
        with pytest.raises(ValueError):
            DetectorParams(m=5, lam=-2.0)

    def test_gain_summary_db(self):
        g = GainSummary(diversity=1.0, coding_gain=0.9)
        assert g.coding_gain_db == pytest.approx(10 * math.log10(0.9))
        assert GainSummary(diversity=2.0).coding_gain_db is None


class TestPfSingle:
    def test_single_sample_closed_form(self):
        assert pf_single(1, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_zero_threshold_limit(self):
        assert pf_single(10, 1e-12) == pytest.approx(1.0, abs=1e-9)

    def test_monte_carlo_oracle(self):
        cfg = SchemeConfig.noncoop(10, 20.0, 1.0)
        est = estimate_point(cfg, "H0", 10 ** 6, seed=21)
        want = pf_single(10, 20.0)
        se = math.sqrt(want * (1 - want) / 10 ** 6)
        assert abs(est.value - want) <= 3 * se


class TestPdSingle:
    def test_zero_snr_degenerates_to_pf(self):
        assert pd_single(10, 15.0, 0.0) == pf_single(10, 15.0)

    def test_single_sample_closed_form(self):
        assert pd_single(1, 4.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_monte_carlo_oracle(self):
        lam, gamma = 30.0, 5.0
        want = pd_single(10, lam, gamma)
        gen = np.random.Generator(np.random.Philox(key=np.array([22, 0], np.uint64)))
        y = (1.0 + gamma) * gen.chisquare(20, 10 ** 6)
        got = float((y > lam).mean())
        se = math.sqrt(want * (1 - want) / 10 ** 6)
        assert abs(got - want) <= 3 * se

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            pd_single(10, 15.0, -0.2)

    @settings(max_examples=60, derandomize=True)
    @given(st.integers(1, 40), st.floats(0.5, 120.0), st.floats(0.0, 50.0))
    def test_detector_unbiased(self, m, lam, gamma):
        assert pd_single(m, lam, gamma) >= pf_single(m, lam)

    def test_strictly_decreasing_in_threshold(self):
        lams = np.linspace(1.0, 60.0, 30)
        pfs = [pf_single(10, float(l)) for l in lams]
        pds = [pd_single(10, float(l), 2.0) for l in lams]
        assert all(b < a for a, b in zip(pfs, pfs[1:]))
        assert all(b < a for a, b in zip(pds, pds[1:]))


class TestCalibration:
    def test_single_sample(self):
        assert calibrate_lambda(1, 0.05) == pytest.approx(-2.0 * math.log(0.05),
                                                          rel=1e-10)

    def test_round_trip(self):
        lam = calibrate_lambda(25, 0.01)
        assert pf_single(25, lam) == pytest.approx(0.01, abs=1e-9)

    def test_bisection_oracle_m100(self):
        lo, hi = 0.0, 1000.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if reg_upper_gamma(100.0, mid / 2.0) > 0.05:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert calibrate_lambda(100, 0.05) == pytest.approx(oracle, rel=1e-10)
        assert oracle == pytest.approx(233.99426889232484, rel=1e-10)


class TestAvgPdNumeric:
    def test_zero_snr_limit(self):
        lam = calibrate_lambda(8, 0.1)
        assert avg_pd_numeric(8, lam, 1e-6) == pytest.approx(pf_single(8, lam),
                                                             abs=1e-6)

    def test_bounded(self):
        lam = calibrate_lambda(12, 0.05)
        for gb in (0.1, 1.0, 10.0, 1e3):
            val = avg_pd_numeric(12, lam, gb)
            assert pf_single(12, lam) <= val <= 1.0

    def test_monotone_in_avg_snr(self):
        lam = calibrate_lambda(10, 0.05)
        vals = [avg_pd_numeric(10, lam, gb) for gb in np.geomspace(0.01, 1e4, 25)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monte_carlo_oracle(self):
        lam = calibrate_lambda(10, 0.05)
        want = avg_pd_numeric(10, lam, 10.0)
        cfg = SchemeConfig.noncoop(10, lam, 10.0)
        est = estimate_point(cfg, "H1", 10 ** 6, seed=23)
        se = math.sqrt(want * (1 - want) / 10 ** 6)
        assert abs(est.value - want) <= 3 * se

    def test_deep_tail_matches_parts_identity(self):
        # the quadrature stays honest where the transition collapses to a
        # sliver of the integration range
        m, lam = 10, calibrate_lambda(10, 0.05)
        coeff = exact_pmd_coefficient(m, lam)
        for gb in (1e3, 1e5):
            pmd = 1.0 - avg_pd_numeric(m, lam, gb)
            assert pmd == pytest.approx(coeff / gb, rel=2e-3)


class TestAvgPdClosed:
    def test_agreement_with_quadrature(self):
        lam = calibrate_lambda(10, 0.05)
        closed = avg_pd_closed(10, lam, 100.0)
        numeric = avg_pd_numeric(10, lam, 100.0)
        assert closed == pytest.approx(numeric, rel=1e-3)

    def test_monotone_on_grid(self):
        lam = calibrate_lambda(5, 0.05)
        vals = [avg_pd_closed(5, lam, float(gb)) for gb in range(1, 101)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_high_snr_expansion(self):
        # The closed form's true first-order limit carries the e^{1/gb}
        # factor: 1 - closed -> (lam/(2(M-1)) - 1)/gb.  The textbook
        # lam/(2 gb (M-1)) form misses the -1 and only matches when
        # lam >> 2(M-1).
        m, lam, gb = 10, 40.0, 1e4
        c = lam / (2.0 * (m - 1))
        pmd = 1.0 - avg_pd_closed(m, lam, gb)
        assert pmd / ((c - 1.0) / gb) == pytest.approx(1.0, abs=0.02)
        assert pmd / (c / gb) == pytest.approx((c - 1.0) / c, abs=0.02)

    def test_saturates_when_coefficient_below_one(self):
        # For lam < 2(M-1) the expansion sits above 1 and the clamp pins
        # the closed form to exactly 1 at high average SNR.
        assert avg_pd_closed(10, 10.0, 1e4) == 1.0

    def test_ratio_to_numeric_at_high_snr(self):
        for m in (5, 10, 25):
            lam = calibrate_lambda(m, 0.05)
            ratio = avg_pd_closed(m, lam, 1e4) / avg_pd_numeric(m, lam, 1e4)
            assert ratio == pytest.approx(1.0, abs=1e-3)

    def test_large_m_does_not_overflow(self):
        lam = calibrate_lambda(500, 0.05)
        val = avg_pd_closed(500, lam, 50.0)
        assert 0.0 <= val <= 1.0 and math.isfinite(val)


class TestAsymptoticPmd:
    def test_offset_to_exact_average(self):
        # The printed form lam/(2 gb (M-1)) drops the e^{1/gb} first-order
        # term, so even asymptotically it exceeds the exact average by the
        # constant factor c/(c - 1) with c = lam/(2(M-1)); the parts
        # identity pins the exact coefficient.  README records this offset.
        m, alpha = 10, 0.05
        lam = calibrate_lambda(m, alpha)
        c = lam / (2.0 * (m - 1))
        expected_ratio = c / exact_pmd_coefficient(m, lam)
        assert expected_ratio == pytest.approx(c / (c - 1.0), rel=0.02)
        printed = lam / (2.0 * 1e3 * (m - 1))
        got = printed / (1.0 - avg_pd_numeric(m, lam, 1e3))
        assert got == pytest.approx(expected_ratio, rel=0.02)

    def test_requires_two_samples(self):
        # the high-SNR miss coefficient (M - 1)/lam vanishes at M = 1
        with pytest.raises(ValueError):
            gains_single(1, 5.0)


class TestGains:
    def test_direct_values(self):
        g = gains_single(10, 10.0)
        assert g.diversity == 1.0
        assert g.coding_gain == pytest.approx(0.9)

    def test_linear_scaling_in_m(self):
        lam = 25.0
        a1 = gains_single(11, lam).coding_gain
        a2 = gains_single(21, lam).coding_gain
        assert a2 / a1 == pytest.approx(2.0)

    def test_slope_regression_oracle(self):
        lam = calibrate_lambda(10, 0.05)
        gbs = np.geomspace(1e3, 1e5, 7)
        pmds = [1.0 - avg_pd_numeric(10, lam, float(g)) for g in gbs]
        slope = np.polyfit(np.log10(gbs), np.log10(pmds), 1)[0]
        assert -slope == pytest.approx(gains_single(10, lam).diversity, abs=0.05)
