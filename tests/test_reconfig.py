"""Reconfigurable-antenna analytics tests.

The min{H(w), G(w)} weighted chi-square CDF approximation is implemented
exactly as printed, so these tests measure its deviation from exact law
(Monte Carlo draws of the weighted sum) and pin it inside recorded error
envelopes rather than asserting closeness: the approximation is coarse at
low SNR (it omits the 1/2 scale inside H's argument) and that deviation is
a property of the printed formula, not of this implementation.

Observed deviations (fixed seeds):
  Q=1, M=10, lam=20, gamma=3     approx - exact ~= +0.032
  all-zero gammas, M=10, lam=15  approx - exact ~= +0.71
  Q=2, l=(2,2), gammas=(1,4)     approx - MC    ~= +0.41
"""

import math

import numpy as np
import pytest
from scipy import integrate

from specsense.channel import AvgSnr
from specsense.detector import avg_pd_numeric, calibrate_lambda, pd_single, pf_single
from specsense.reconfig import (
    ReconfigParams,
    _dwell_average,
    WeightedChiSqSpec,
    allocate_samples,
    avg_pmd_selection,
    avg_pmd_switching,
    diversity_reconfig,
    pmd_selection_conditional,
    pmd_switching_asymptotic_conditional,
    pmd_switching_conditional,
    reduced_samples,
    selection_gain,
    selection_gain_large_q,
    selection_pmd_hypergeom_diagnostic,
)
from specsense.specfun import ConvergenceError, harmonic, ln_gamma, reg_lower_gamma


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


class TestWeightedChiSqSpec:
    def test_from_states(self):
        spec = WeightedChiSqSpec.from_states([0.5, 2.0], [3, 4])
        assert spec.coeffs == (1.5, 3.0)
        assert spec.dofs == (6, 8)
        assert spec.total_samples == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightedChiSqSpec(coeffs=(0.5,), dofs=(4,))  # coefficient < 1
        with pytest.raises(ValueError):
            WeightedChiSqSpec(coeffs=(1.5,), dofs=(3,))  # odd dof
        with pytest.raises(ValueError):
            WeightedChiSqSpec(coeffs=(1.5,), dofs=(0,))  # degenerate dwell


class TestSwitchingConditional:
    def test_q1_reduction_envelope(self):
        spec = WeightedChiSqSpec.from_states([3.0], [10])
        approx = pmd_switching_conditional(spec, 20.0)
        exact = 1.0 - pd_single(10, 20.0, 3.0)
        print(f"Q=1 reduction: approx {approx:.6f} exact {exact:.6f} "
              f"deviation {approx - exact:+.4f}")
        assert abs(approx - exact) <= 0.05

    def test_h0_degeneration_envelope(self):
        spec = WeightedChiSqSpec.from_states([0.0, 0.0], [5, 5])
        approx = pmd_switching_conditional(spec, 15.0)
        exact = 1.0 - pf_single(10, 15.0)
        print(f"H0 degeneration: approx {approx:.6f} exact {exact:.6f} "
              f"deviation {approx - exact:+.4f}")
        assert abs(approx - exact) <= 0.75

    def test_monte_carlo_cdf_envelope(self):
        spec = WeightedChiSqSpec.from_states([1.0, 4.0], [2, 2])
        approx = pmd_switching_conditional(spec, 12.0)
        gen = np.random.Generator(np.random.Philox(key=np.array([123, 0], np.uint64)))
        n = 10 ** 7
        y = 2.0 * gen.gamma(2.0, 2.0, n) + 5.0 * gen.gamma(2.0, 2.0, n)
        empirical = float((y <= 12.0).mean())
        print(f"MC CDF oracle: approx {approx:.6f} empirical {empirical:.6f} "
              f"deviation {approx - empirical:+.4f}")
        assert abs(approx - empirical) <= 0.45

    def test_bounded(self):
        spec = WeightedChiSqSpec.from_states([0.2, 8.0, 1.0], [4, 4, 4])
        for lam in (1.0, 20.0, 80.0, 400.0):
            assert 0.0 <= pmd_switching_conditional(spec, lam) <= 1.0

    def test_monotone_in_each_gamma_and_lambda(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            q = int(rng.integers(1, 5))
            alloc = tuple(int(a) for a in rng.integers(1, 6, q))
            lam = float(rng.uniform(1.0, 8.0) * sum(alloc))
            gammas = rng.exponential(rng.uniform(0.1, 50.0), q)
            base = pmd_switching_conditional(
                WeightedChiSqSpec.from_states(gammas, alloc), lam)
            j = int(rng.integers(0, q))
            bumped = gammas.copy()
            bumped[j] += float(rng.uniform(0.01, 1.0))
            up = pmd_switching_conditional(
                WeightedChiSqSpec.from_states(bumped, alloc), lam)
            assert up <= base + 1e-12
            wider = pmd_switching_conditional(
                WeightedChiSqSpec.from_states(gammas, alloc), lam * 1.25)
            assert wider >= base - 1e-12

    def test_min_attained_by_h_at_high_snr(self):
        # at calibrated lambda and gamma_bar = 1e3 the H branch should win
        # in at least 99% of sampled realizations
        rng = np.random.default_rng(6)
        lam = calibrate_lambda(20, 0.05)
        alloc = (5, 5, 5, 5)
        wins = 0
        trials = 500
        for _ in range(trials):
            gammas = rng.exponential(1e3, 4)
            coeffs = 1.0 + gammas
            m = sum(alloc)
            log_geo = sum(l * math.log(c) for l, c in zip(alloc, coeffs)) / m
            h = reg_lower_gamma(float(m), lam / math.exp(log_geo))
            w = lam / sum(l * c for l, c in zip(alloc, coeffs))
            g = sum(2 * l * (w * c / lam) * reg_lower_gamma(lam / (2 * w * c), lam / c)
                    for l, c in zip(alloc, coeffs))
            if h <= g:
                wins += 1
        assert wins / trials >= 0.99


class TestSwitchingAsymptoticConditional:
    def test_zero_gamma_leading_term(self):
        spec = WeightedChiSqSpec.from_states([0.0] * 3, [2, 2, 2])
        want = math.exp(6 * math.log(9.0) - ln_gamma(7.0))
        assert pmd_switching_asymptotic_conditional(spec, 9.0) == pytest.approx(
            want, rel=1e-12)

    def test_product_structure(self):
        a = WeightedChiSqSpec.from_states([1.0, 3.0], [3, 2])
        b = WeightedChiSqSpec.from_states([3.0, 7.0], [3, 2])  # 1+gamma doubled
        ratio = (pmd_switching_asymptotic_conditional(a, 11.0)
                 / pmd_switching_asymptotic_conditional(b, 11.0))
        assert ratio == pytest.approx(2.0 ** 5, rel=1e-12)

    def test_ratio_to_full_conditional_at_high_snr(self):
        rng = np.random.default_rng(7)
        gammas = rng.exponential(1e3, 2)
        spec = WeightedChiSqSpec.from_states(gammas, [5, 5])
        lam = calibrate_lambda(10, 0.05)
        full = pmd_switching_conditional(spec, lam)
        asym = pmd_switching_asymptotic_conditional(spec, lam)
        assert asym / full == pytest.approx(1.0, abs=0.15)


class TestAvgSwitching:
    def test_asymptotic_slope_is_exactly_q(self):
        params = ReconfigParams.make(10, 100, calibrate_lambda(100, 0.05))
        a = avg_pmd_switching(params, 1e3, method="asymptotic")
        b = avg_pmd_switching(params, 1e4, method="asymptotic")
        assert a / b == pytest.approx(10.0 ** 10, rel=1e-9)

    def test_quadrature_vs_asymptotic(self):
        params = ReconfigParams(q=3, m=12, alloc=(4, 4, 4), lam=30.0)
        ratio = (avg_pmd_switching(params, 1e4, method="quadrature")
                 / avg_pmd_switching(params, 1e4, method="asymptotic"))
        assert ratio == pytest.approx(1.0, abs=0.05)

    def test_negative_parameter_gamma_identity(self):
        # Gamma(1-l, 1/gb) ~ gb^{l-1}/(l-1) at l=5, gb=1e3, by quadrature
        l, gb = 5, 1e3
        x = 1.0 / gb
        val, _ = integrate.quad(lambda t: t ** (-l) * math.exp(-t), x, 60.0,
                                points=[2 * x, 1e-2, 0.1, 1.0], epsabs=1e-30,
                                epsrel=1e-12, limit=400)
        assert val == pytest.approx(gb ** (l - 1) / (l - 1), rel=0.01)

    def test_asymptotic_needs_two_sample_dwells(self):
        params = ReconfigParams(q=3, m=5, alloc=(2, 2, 1), lam=10.0)
        with pytest.raises(ValueError):
            avg_pmd_switching(params, 1e3, method="asymptotic")
        # quadrature handles singleton dwells fine
        assert avg_pmd_switching(params, 1e3, method="quadrature") > 0.0

    def test_unknown_method(self):
        params = ReconfigParams.make(2, 8, 20.0)
        with pytest.raises(ValueError):
            avg_pmd_switching(params, 10.0, method="exact")

    @pytest.mark.parametrize("method", ["quadrature", "asymptotic"])
    def test_beyond_double_range_raises_convergence_error(self, method):
        # lam^M / M! alone is e^1688 at M = 1000, alpha = 0.05.
        params = ReconfigParams.make(10, 1000, calibrate_lambda(1000, 0.05))
        with pytest.raises(ConvergenceError):
            avg_pmd_switching(params, AvgSnr.from_db(0.0), method=method)


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
        g = diversity_reconfig(20, 4, "switching")
        assert g.coding_gain is None and g.selection_gain is None

    def test_selection_attaches_harmonic_gain(self):
        g = diversity_reconfig(20, 4, "selection")
        assert g.selection_gain == pytest.approx(harmonic(4))
        assert g.selection_gain_db == pytest.approx(10 * math.log10(harmonic(4)))


class TestSelectionConditional:
    def test_zero_best_state(self):
        assert pmd_selection_conditional(10, 20.0, 0.0) == pytest.approx(
            1.0 - pf_single(10, 20.0), abs=1e-12)

    def test_complement_identity(self):
        got = pmd_selection_conditional(10, 20.0, 7.0)
        assert got + pd_single(10, 20.0, 7.0) == pytest.approx(1.0, abs=1e-12)

    def test_series_oracle(self):
        # P(3, 1) = 1 - e^-1 (1 + 1 + 1/2)
        want = 1.0 - math.exp(-1.0) * 2.5
        assert want == pytest.approx(0.08030139707139416, rel=1e-12)
        assert pmd_selection_conditional(3, 6.0, 2.0) == pytest.approx(want,
                                                                       rel=1e-10)


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

    def test_dominant_pdf_mode_tracks_exact_at_high_snr(self):
        lam = calibrate_lambda(10, 0.05)
        exact = avg_pmd_selection(10, lam, 1e3, 3, pdf_mode="exact")
        dominant = avg_pmd_selection(10, lam, 1e3, 3, pdf_mode="dominant")
        assert dominant / exact == pytest.approx(1.0, abs=0.05)

    def test_selection_dominates_switching_average(self):
        lam = calibrate_lambda(12, 0.05)
        params = ReconfigParams.make(3, 12, lam)
        for gb in (1.0, 10.0, 100.0, 1e3):
            sel = avg_pmd_selection(12, lam, gb, 3)
            sw = avg_pmd_switching(params, gb, method="quadrature")
            assert sel <= sw


class TestSelectionGain:
    def test_single_state(self):
        assert selection_gain(1) == (1.0, 0.0)

    def test_ten_states(self):
        linear, db = selection_gain(10)
        assert linear == pytest.approx(2.92897, abs=1e-5)
        assert db == pytest.approx(4.667, abs=1e-3)  # quoted as "4.7 dB"

    def test_large_q_approximation(self):
        assert selection_gain_large_q(10 ** 6) == pytest.approx(
            harmonic(10 ** 6), rel=1e-6)

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


class TestHypergeomDiagnostic:
    def test_evaluates_when_m_not_above_q(self):
        val = selection_pmd_hypergeom_diagnostic(3, 5, 20.0, 100.0, k1=1.0, k2=0.5)
        assert math.isfinite(val)

    def test_pole_when_m_exceeds_q(self):
        with pytest.raises(ValueError):
            selection_pmd_hypergeom_diagnostic(10, 3, 20.0, 100.0, k1=1.0, k2=1.0)

    def test_leading_order_matches_min_m_q(self):
        # with M <= Q the gb^-M term dominates: slope M per decade
        a = selection_pmd_hypergeom_diagnostic(3, 5, 20.0, 1e3, k1=0.0, k2=1.0)
        b = selection_pmd_hypergeom_diagnostic(3, 5, 20.0, 1e4, k1=0.0, k2=1.0)
        assert a / b == pytest.approx(10.0 ** 3, rel=0.01)
