"""Fading-channel sampling tests.

Monte Carlo oracles run at fixed seeds; distributional checks use standard
3-standard-error bands, a Kolmogorov-Smirnov bound, and a chi-square
goodness-of-fit against the exact max-state CDF.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import stats

from specsense.channel import AvgSnr, RandomStream, draw_best_snr, draw_snr
from specsense.reconfig import avg_pmd_selection
from specsense.specfun import harmonic


class TestAvgSnr:
    def test_db_round_trip(self):
        avg = AvgSnr.from_db(10.0)
        assert avg.gamma_bar == pytest.approx(10.0)
        assert 10.0 * math.log10(avg.gamma_bar) == pytest.approx(10.0)

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
        first = draw_snr(AvgSnr(2.0), rng.generator(), 1)
        again = draw_snr(AvgSnr(2.0), rng.generator(), 1)
        assert first[0] == again[0]  # stateless handle, fresh generator each call


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
    def test_array_draw_is_the_scaled_standard_exponential_bit_for_bit(self, size):
        stream = RandomStream(seed=5, stream_id=2)
        got = draw_snr(AvgSnr(3.7), stream.generator(), size)
        want = 3.7 * stream.generator().standard_exponential(size)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("size", [1000, (500, 7)])
    def test_array_draw_is_the_inverse_cdf_bit_for_bit(self, size):
        # The best-of-Q draw is the one left on the inverse CDF: one uniform
        # per draw, in stream order, whatever the shape.
        stream = RandomStream(seed=5, stream_id=2)
        got = draw_best_snr(AvgSnr(3.7), stream.generator(), size, 3)
        u = stream.generator().random(size)
        want = -3.7 * np.log(-np.expm1(np.log(u) / 3))
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestSampleStates:
    def test_single_state_equals_scalar_draw(self):
        avg = AvgSnr(3.0)
        states = draw_snr(avg, RandomStream(seed=11).generator(), (4, 1))
        single = draw_snr(avg, RandomStream(seed=11).generator(), 4)
        assert states.shape == (4, 1)
        assert np.array_equal(states[:, 0], single)

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


class TestMaxStatePdf:
    """The max-of-Q law, through the selection miss that integrates its CDF.

    With the threshold far above the energy statistic's bulk every fading
    state counts as a miss, so the miss equals the CDF's total mass.
    """

    def test_normalization(self):
        assert avg_pmd_selection(5, 1e4, AvgSnr(3.0), 5) == pytest.approx(1.0, abs=1e-8)

    def test_normalization_large_q(self):
        for q in (16, 64):
            assert avg_pmd_selection(5, 1e4, AvgSnr(1.0), q) == pytest.approx(
                1.0, abs=1e-8)

    def test_rejects_negative_snr(self):
        with pytest.raises(ValueError):
            avg_pmd_selection(5, 20.0, -0.1, 2)

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


class TestBestStateSampling:
    """``draw_best_snr`` against the max-of-Q law (1 - e^{-x/gb})^Q."""

    @pytest.mark.parametrize("q", [1, 4, 10])
    def test_kolmogorov_smirnov(self, q):
        gbar, n = 2.5, 10 ** 5
        draws = draw_best_snr(AvgSnr(gbar), RandomStream(seed=16).generator(), n, q)

        def cdf(x):
            return (-np.expm1(-x / gbar)) ** q

        ks = stats.kstest(draws, cdf).statistic
        assert ks < 1.63 / math.sqrt(n)  # 1% critical value

    @pytest.mark.parametrize("q", [1, 4, 10])
    def test_mean_is_harmonic_number(self, q):
        gbar, n = 2.5, 10 ** 6
        draws = draw_best_snr(AvgSnr(gbar), RandomStream(seed=17).generator(), n, q)
        # Var of the max of q exponentials is gb^2 sum_k 1/k^2.
        se = gbar * math.sqrt(sum(1.0 / k ** 2 for k in range(1, q + 1)) / n)
        assert abs(draws.mean() - gbar * harmonic(q)) <= 3 * se

    def test_one_state_is_the_single_draw(self):
        # Same uniforms, two forms of the same inverse CDF.
        stream = RandomStream(seed=18)
        best = draw_best_snr(AvgSnr(3.7), stream.generator(), 10 ** 5, 1)
        single = -3.7 * np.log1p(-stream.generator().random(10 ** 5))
        assert np.allclose(best, single, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("q", [1, 4, 10])
    def test_both_ends_of_the_uniform_range(self, q):
        class EndsOfRange:
            def random(self, size, out=None):
                assert out is None
                return np.array([0.0, 1.0 - 2.0 ** -53])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                low, high = draw_best_snr(AvgSnr(2.0), EndsOfRange(), 2, q)
        assert low == 0.0 and math.copysign(1.0, low) == 1.0  # +0, not -0
        # 1 - u^{1/q} ~ 2^-53 / q at the top of the range
        assert high == pytest.approx(2.0 * (53 * math.log(2.0) + math.log(q)), rel=1e-9)


class TestSelectionGainLink:
    def test_mean_of_max_matches_harmonic_number(self):
        gen = RandomStream(seed=15).generator()
        draws = draw_snr(AvgSnr(1.0), gen, (10 ** 6, 10)).max(axis=1)
        assert draws.mean() == pytest.approx(harmonic(10), rel=0.01)
