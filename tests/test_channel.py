"""Fading-channel sampling and density tests.

Monte Carlo oracles run at fixed seeds; distributional checks use standard
3-standard-error bands, a Kolmogorov-Smirnov bound, and a chi-square
goodness-of-fit against the exact max-state CDF.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from specsense.channel import (
    AvgSnr,
    RandomStream,
    draw_snr,
    max_state_pdf_dominant,
    max_state_pdf_exact,
    sample_rayleigh_snr,
    sample_states,
)
from specsense.specfun import harmonic


class TestAvgSnr:
    def test_db_round_trip(self):
        avg = AvgSnr.from_db(10.0)
        assert avg.gamma_bar == pytest.approx(10.0)
        assert avg.db == pytest.approx(10.0)

    def test_coerce(self):
        assert AvgSnr.coerce(4.0).gamma_bar == 4.0
        assert AvgSnr.coerce(AvgSnr(2.0)).gamma_bar == 2.0

    def test_rejects_nonpositive(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                AvgSnr(bad)


class TestRandomStream:
    def test_identical_stream_identical_draws(self):
        a = RandomStream(seed=123, stream_id=5).generator().random(100)
        b = RandomStream(seed=123, stream_id=5).generator().random(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = RandomStream(seed=123, stream_id=5).generator().random(100)
        b = RandomStream(seed=123, stream_id=6).generator().random(100)
        c = RandomStream(seed=124, stream_id=5).generator().random(100)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_substream_deterministic(self):
        s = RandomStream(seed=9)
        a = s.substream(3, 1).generator().random(10)
        b = s.substream(3, 1).generator().random(10)
        c = s.substream(3, 2).generator().random(10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_single_draw_matches_stream_origin(self):
        rng = RandomStream(seed=77)
        first = sample_rayleigh_snr(AvgSnr(2.0), rng)
        again = sample_rayleigh_snr(AvgSnr(2.0), rng)
        assert first == again  # stateless handle, fresh generator each call


class TestRayleighSampling:
    def test_empirical_mean(self):
        gen = RandomStream(seed=1).generator()
        draws = draw_snr(AvgSnr(4.0), gen, 10 ** 6)
        se = 4.0 / math.sqrt(10 ** 6)  # std of Exp(4) is 4
        assert abs(draws.mean() - 4.0) <= 3 * se

    def test_tail_mass(self):
        gen = RandomStream(seed=2).generator()
        draws = draw_snr(AvgSnr(4.0), gen, 10 ** 6)
        frac = float((draws > 4.0).mean())
        se = math.sqrt(math.exp(-1) * (1 - math.exp(-1)) / 10 ** 6)
        assert abs(frac - math.exp(-1)) <= 3 * se

    def test_kolmogorov_smirnov(self):
        gen = RandomStream(seed=3).generator()
        draws = draw_snr(AvgSnr(1.0), gen, 10 ** 5)
        ks = stats.kstest(draws, "expon").statistic
        assert ks < 1.63 / math.sqrt(10 ** 5)  # 1% critical value

    def test_nonnegative(self):
        gen = RandomStream(seed=4).generator()
        assert (draw_snr(AvgSnr(0.5), gen, 10 ** 4) >= 0.0).all()

    @pytest.mark.parametrize("size", [1000, (500, 7)])
    def test_array_draw_is_the_inverse_cdf_bit_for_bit(self, size):
        stream = RandomStream(seed=5, stream_id=2)
        got = draw_snr(AvgSnr(3.7), stream.generator(), size)
        u = stream.generator().random(size)
        want = -3.7 * np.log1p(-u)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSampleStates:
    def test_single_state_equals_scalar_draw(self):
        avg = AvgSnr(3.0)
        states = sample_states(avg, 1, RandomStream(seed=11))
        single = sample_rayleigh_snr(avg, RandomStream(seed=11))
        assert states.shape == (1,)
        assert states[0] == single

    def test_independence_across_states(self):
        gen = RandomStream(seed=12).generator()
        draws = draw_snr(AvgSnr(1.0), gen, (10 ** 5, 2))
        rho = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
        assert abs(rho) <= 3.0 / math.sqrt(10 ** 5)

    def test_per_state_means(self):
        gen = RandomStream(seed=13).generator()
        draws = draw_snr(AvgSnr(2.0), gen, (10 ** 5, 10))
        se = 2.0 / math.sqrt(10 ** 5)
        assert np.all(np.abs(draws.mean(axis=0) - 2.0) <= 3 * se)

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            sample_states(AvgSnr(1.0), 0, RandomStream(seed=1))


class TestMaxStatePdf:
    def test_q1_reduces_to_exponential(self):
        gs = np.linspace(0.0, 12.0, 30)
        want = np.exp(-gs / 3.0) / 3.0
        got = max_state_pdf_exact(gs, AvgSnr(3.0), 1)
        assert got == pytest.approx(want, rel=1e-12)

    def test_normalization(self):
        val, _ = integrate.quad(lambda g: max_state_pdf_exact(g, AvgSnr(3.0), 5),
                                0.0, 300.0, epsabs=1e-10, limit=200)
        assert val == pytest.approx(1.0, abs=1e-8)

    def test_normalization_large_q(self):
        for q in (16, 64):
            val, _ = integrate.quad(
                lambda g: max_state_pdf_exact(g, AvgSnr(1.0), q),
                0.0, 120.0, epsabs=1e-10, limit=200)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_chi_square_goodness_of_fit(self):
        q, gbar, n = 4, 1.0, 10 ** 5
        gen = RandomStream(seed=14).generator()
        draws = draw_snr(AvgSnr(gbar), gen, (n, q)).max(axis=1)
        edges = np.quantile(draws, np.linspace(0.0, 1.0, 31))
        edges[0], edges[-1] = 0.0, np.inf
        counts, _ = np.histogram(draws, edges)

        def cdf(g):
            return (-np.expm1(-g / gbar)) ** q

        expected = n * np.diff([cdf(e) if np.isfinite(e) else 1.0 for e in edges])
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # 30 cells, edges estimated from the sample: compare against the
        # 0.999 quantile with 29 dof
        assert chi2 < stats.chi2.ppf(0.999, 29)

    def test_dominant_q1_equals_exact(self):
        gs = np.linspace(0.0, 10.0, 20)
        assert max_state_pdf_dominant(gs, AvgSnr(2.0), 1) == pytest.approx(
            max_state_pdf_exact(gs, AvgSnr(2.0), 1), rel=1e-12)

    def test_dominant_matches_exact_at_high_avg_snr(self):
        ratio = (max_state_pdf_exact(1.0, AvgSnr(1e4), 6)
                 / max_state_pdf_dominant(1.0, AvgSnr(1e4), 6))
        assert ratio == pytest.approx(1.0, abs=1e-3)

    def test_dominant_direct_substitution(self):
        # (Q/gbar^Q) e^{-g/gbar} g^{Q-1} at g=2, gbar=5, Q=3
        want = 3.0 / 125.0 * math.exp(-0.4) * 4.0
        assert max_state_pdf_dominant(2.0, AvgSnr(5.0), 3) == pytest.approx(
            want, rel=1e-12)

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            max_state_pdf_exact(-0.1, AvgSnr(1.0), 2)


class TestSelectionGainLink:
    def test_mean_of_max_matches_harmonic_number(self):
        gen = RandomStream(seed=15).generator()
        draws = draw_snr(AvgSnr(1.0), gen, (10 ** 6, 10)).max(axis=1)
        assert draws.mean() == pytest.approx(harmonic(10), rel=0.01)
