"""Reconfigurable-antenna analytics tests."""

import math

import numpy as np
import pytest
from scipy import integrate

from specsense.channel import AvgSnr
from specsense.detector import avg_pd_numeric, calibrate_lambda, pd_single, pf_single
from specsense.reconfig import (
    ReconfigParams,
    _dwell_average,
    allocate_samples,
    avg_pmd_selection,
    avg_pmd_switching,
    diversity_reconfig,
    reduced_samples,
    selection_gain,
)
from specsense.specfun import (
    ConvergenceError,
    harmonic,
    hypergeom_1f2,
    ln_gamma,
    reg_lower_gamma,
)


def compositions(total, parts):
    """All orderings of `total` into `parts` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


class TestAllocation:
    def test_reference_configuration(self):
        assert allocate_samples(100, 10) == (10,) * 10

    def test_remainder_to_lowest_indexed(self):
        assert allocate_samples(7, 3) == (3, 2, 2)

    def test_fewer_samples_than_states(self):
        assert allocate_samples(4, 9) == (1, 1, 1, 1)

    def test_brute_force_optimality_m12_q3(self):
        objective = lambda alloc: math.prod(l - 1 for l in alloc)
        best = max(objective(c) for c in compositions(12, 3))
        assert objective(allocate_samples(12, 3)) == best

    def test_allocation_invariants(self):
        for m, q in ((100, 10), (17, 4), (9, 9), (23, 5)):
            alloc = allocate_samples(m, q)
            base = m // q
            assert sum(alloc) == m
            assert set(alloc) <= {base, base + 1}


class TestAvgSwitching:
    def test_asymptotic_slope_is_exactly_q(self):
        # The dwell averages reach their gb^-1 limit only as gb -> infinity:
        # over 30 -> 40 dB the ratio is 0.99888 x 10^Q for Q = 10, M = 100.
        params = ReconfigParams(q=10, m=100, lam=calibrate_lambda(100, 0.05))
        a = avg_pmd_switching(params, 1e3)
        b = avg_pmd_switching(params, 1e4)
        assert a / b == pytest.approx(10.0 ** 10, rel=2e-3)

    def test_quadrature_vs_asymptotic(self):
        # against the fully reduced large-SNR form
        # lam^M / Gamma(M+1) / (prod (l_j - 1) * gamma_bar^Q)
        params = ReconfigParams(q=3, m=12, lam=30.0)
        reduced = math.exp(12 * math.log(30.0) - ln_gamma(13.0)
                           - 3 * math.log(3.0) - 3 * math.log(1e4))
        ratio = avg_pmd_switching(params, 1e4) / reduced
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_negative_parameter_gamma_identity(self):
        # Gamma(1-l, 1/gb) ~ gb^{l-1}/(l-1) at l=5, gb=1e3, by quadrature;
        # the dwell average is x^l e^x Gamma(1-l, x) with x = 1/gb
        l, gb = 5, 1e3
        x = 1.0 / gb
        val, _ = integrate.quad(lambda t: t ** (-l) * math.exp(-t), x, 60.0,
                                points=[2 * x, 1e-2, 0.1, 1.0], epsabs=1e-30,
                                epsrel=1e-12, limit=400)
        assert val == pytest.approx(gb ** (l - 1) / (l - 1), rel=0.01)
        assert _dwell_average(l, gb) == pytest.approx(x ** l * math.exp(x) * val,
                                                      rel=1e-9)

    def test_asymptotic_needs_two_sample_dwells(self):
        # a dwell of l >= 2 averages to 1/((l-1) gb); a singleton dwell to
        # (ln gb - Euler's constant)/gb, so the reduced form needs l_j >= 2;
        # the l = 2 limit carries a (ln gb)/gb correction, 1.4e-5 here
        gb = 1e6
        assert _dwell_average(2, gb) * gb == pytest.approx(1.0, rel=1e-4)
        assert _dwell_average(1, gb) * gb == pytest.approx(
            math.log(gb) - np.euler_gamma, rel=1e-5)
        # the dwell-average form handles singleton dwells fine
        params = ReconfigParams(q=3, m=5, lam=10.0)
        assert 0.0 < avg_pmd_switching(params, 1e3) < math.inf

    def test_beyond_double_range_raises_convergence_error(self):
        # lam^M / M! alone is e^1688 at M = 1000, alpha = 0.05.
        params = ReconfigParams(q=10, m=1000, lam=calibrate_lambda(1000, 0.05))
        with pytest.raises(ConvergenceError):
            avg_pmd_switching(params, AvgSnr.from_db(0.0))


class TestSwitchingAsymptoticConditional:
    """The asymptote lam^M / Gamma(M+1) prod E[(1 + gamma_j)^{-l_j}]."""

    def test_zero_gamma_leading_term(self):
        # gamma_bar -> 0 leaves every dwell average at 1
        params = ReconfigParams(q=3, m=6, lam=9.0)
        want = math.exp(6 * math.log(9.0) - ln_gamma(7.0))
        assert avg_pmd_switching(params, 1e-15) == pytest.approx(want, rel=1e-12)

    def test_product_structure(self):
        # independent dwells: the (3, 2) average is the product of the
        # single-dwell ones, up to the 3! 2! / 5! of the lam^M / M! prefactor
        for gb in (0.5, 10.0, 1e4):
            both = avg_pmd_switching(ReconfigParams(q=2, m=5, lam=11.0), gb)
            a = avg_pmd_switching(ReconfigParams(q=1, m=3, lam=11.0), gb)
            b = avg_pmd_switching(ReconfigParams(q=1, m=2, lam=11.0), gb)
            assert both == pytest.approx(a * b * 6.0 * 2.0 / 120.0, rel=1e-12)


class TestSwitchingConditional:
    def test_monotone_in_each_gamma_and_lambda(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            q = int(rng.integers(1, 5))
            m = int(rng.integers(q, 5 * q + 1))
            lam = float(rng.uniform(1.0, 8.0) * m)
            gb = float(rng.uniform(0.1, 50.0))
            params = ReconfigParams(q=q, m=m, lam=lam)
            base = avg_pmd_switching(params, gb)
            up = avg_pmd_switching(params, gb + float(rng.uniform(0.01, 1.0)))
            assert up <= base * (1.0 + 1e-12)
            wider = avg_pmd_switching(
                ReconfigParams(q=q, m=m, lam=lam * 1.25), gb)
            assert wider >= base * (1.0 - 1e-12)


class TestDwellAverage:
    """E[(1 + gamma)^-l] = z e^z E_l(z) against mpmath.

    The mpmath value is the defining integral z int_0^inf e^{-z s} (1+s)^{-l}
    ds by quadrature: mpmath's own ``expint`` loses every digit at l = 100,
    z = 316, where e^z expint(l, z) evaluates to 1.7e39 for a value of 2.4e-3.
    """

    @pytest.mark.parametrize("l", [1, 2, 10, 100, 1000])
    def test_matches_mpmath_from_minus_40_to_70_db(self, l):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            for snr_db in range(-40, 71, 5):
                z = mp.mpf(1) / mp.power(10, mp.mpf(snr_db) / 10)
                scale = 1 / (z + l)
                want = z * mp.quad(lambda s: mp.exp(-z * s - l * mp.log1p(s)),
                                   [0, scale, 10 * scale, 100 * scale, mp.inf])
                got = _dwell_average(l, 10.0 ** (snr_db / 10.0))
                assert 0.0 < got < math.inf
                assert abs(got - want) <= 1e-12 * want, (l, snr_db, got, want)


class TestDiversity:
    def test_reference_configuration(self):
        assert diversity_reconfig(100, 10).diversity == 10.0

    def test_sample_limited(self):
        assert diversity_reconfig(5, 10).diversity == 5.0

    def test_switching_leaves_coding_gain_unquantified(self):
        assert diversity_reconfig(20, 4).coding_gain is None


class TestSelectionConditional:
    """The selection miss given the best state, P(M, lam / (2 (1 + gamma_max)))."""

    def test_zero_best_state(self):
        # all Q states near zero SNR: the miss is 1 - P_F
        assert avg_pmd_selection(10, 20.0, 1e-9, 3) == pytest.approx(
            1.0 - pf_single(10, 20.0), abs=1e-7)

    def test_complement_identity(self):
        got = reg_lower_gamma(10.0, 20.0 / (2.0 * 8.0))
        assert got + pd_single(10, 20.0, 7.0) == pytest.approx(1.0, abs=1e-12)

    def test_series_oracle(self):
        # P(3, 1) = 1 - e^-1 (1 + 1 + 1/2)
        want = 1.0 - math.exp(-1.0) * 2.5
        assert want == pytest.approx(0.08030139707139416, rel=1e-12)
        assert 1.0 - pd_single(3, 6.0, 2.0) == pytest.approx(want, rel=1e-10)


class TestAvgSelection:
    def test_single_state_matches_plain_average(self):
        lam = calibrate_lambda(10, 0.05)
        got = avg_pmd_selection(10, lam, 7.0, 1)
        want = 1.0 - avg_pd_numeric(10, lam, 7.0)
        assert got == pytest.approx(want, abs=1e-9)

    def test_decreasing_in_state_count(self):
        lam = calibrate_lambda(10, 0.05)
        vals = [avg_pmd_selection(10, lam, 10.0, q) for q in (1, 2, 4, 8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_monte_carlo_oracle(self):
        from specsense.simkit import SchemeConfig, estimate_point
        lam = calibrate_lambda(10, 0.05)
        want = avg_pmd_selection(10, lam, 10.0, 5)
        cfg = SchemeConfig.selection(5, 10, lam, 10.0)
        est = estimate_point(cfg, "H1", 10 ** 7, seed=32)
        got = 1.0 - est.value
        se = math.sqrt(want * (1 - want) / est.trials)
        assert abs(got - want) <= 3 * se

    def test_selection_dominates_switching_average(self):
        lam = calibrate_lambda(12, 0.05)
        params = ReconfigParams(q=3, m=12, lam=lam)
        for gb in (1.0, 10.0, 100.0, 1e3):
            sel = avg_pmd_selection(12, lam, gb, 3)
            sw = avg_pmd_switching(params, gb)
            assert sel <= sw


class TestSelectionGain:
    def test_single_state(self):
        assert selection_gain(1) == (1.0, 0.0)

    def test_ten_states(self):
        linear, db = selection_gain(10)
        assert linear == pytest.approx(2.92897, abs=1e-5)
        assert db == pytest.approx(4.667, abs=1e-3)  # quoted as "4.7 dB"

    def test_large_q_approximation(self):
        assert selection_gain(10 ** 6)[0] == pytest.approx(
            math.log(10 ** 6) + np.euler_gamma, rel=1e-6)

    def test_monte_carlo_ratio(self):
        from specsense.channel import RandomStream, draw_snr
        gen = RandomStream(seed=33).generator()
        draws = draw_snr(AvgSnr(1.0), gen, (10 ** 6, 10))
        ratio = draws.max(axis=1).mean() / 1.0
        assert ratio == pytest.approx(harmonic(10), rel=0.01)


class TestReducedSamples:
    def test_reference_value(self):
        # ceil(100 / H_10) = ceil(34.14) = 35 under the implemented rule;
        # the reference text prints 33 for the same expression (documented
        # arithmetic discrepancy), so 33 is exercised as an extra operating
        # point by the experiment runner rather than produced here.
        assert reduced_samples(100, 10) == 35

    def test_direct_substitution(self):
        assert reduced_samples(50, 5) == 22

    def test_state_count_floor(self):
        assert reduced_samples(12, 10) == 10

    def test_requires_m_at_least_q(self):
        with pytest.raises(ValueError):
            reduced_samples(5, 10)


def selection_1f2_shape(m, q, lam, gb, k1, k2):
    """k1/gb^Q 1F2(Q; Q+1, -M+Q+1; z) + k2/gb^M 1F2(M; M+1, -M+Q+1; z), z = lam/(2 gb).

    The hypergeometric-series shape of the averaged selection miss; README
    records why specsense does not use it.
    """
    z, b = lam / (2.0 * gb), float(q - m + 1)
    return (k1 * gb ** -q * hypergeom_1f2(float(q), q + 1.0, b, z)
            + k2 * gb ** -m * hypergeom_1f2(float(m), m + 1.0, b, z))


class TestHypergeomDiagnostic:
    def test_evaluates_when_m_not_above_q(self):
        assert math.isfinite(selection_1f2_shape(3, 5, 20.0, 100.0, k1=1.0, k2=0.5))

    def test_pole_when_m_exceeds_q(self):
        with pytest.raises(ValueError):
            selection_1f2_shape(10, 3, 20.0, 100.0, k1=1.0, k2=1.0)

    def test_leading_order_matches_min_m_q(self):
        # with M <= Q the gb^-M term dominates: slope M per decade
        a = selection_1f2_shape(3, 5, 20.0, 1e3, k1=0.0, k2=1.0)
        b = selection_1f2_shape(3, 5, 20.0, 1e4, k1=0.0, k2=1.0)
        assert a / b == pytest.approx(10.0 ** 3, rel=0.01)
