"""Special-function kernel tests against independent oracles.

Oracles: adaptive quadrature of the defining integrals (scipy.integrate),
exact rational series (fractions), Pascal's triangle integer recurrence,
bisection on an independent implementation (scipy.special), and mpmath
reference evaluations.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

from specsense.detector import DetectorParams, calibrate_lambda
from specsense.fusion import FusionParams
from specsense.reconfig import (
    ReconfigParams,
    allocate_samples,
    avg_pmd_selection,
    diversity_reconfig,
    reduced_samples,
    selection_gain,
)
from specsense.specfun import (
    ConvergenceError,
    harmonic,
    hypergeom_1f2,
    inv_reg_upper_gamma,
    ln_bessel_k_int,
    ln_gamma,
    log_binom,
    reg_lower_gamma,
    reg_upper_gamma,
)


class TestLnGamma:
    def test_gamma_one(self):
        assert ln_gamma(1.0) == 0.0

    def test_factorial(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-12)

    def test_half(self):
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-12)

    def test_accuracy_over_range(self):
        for x in np.geomspace(0.5, 1e6, 60):
            assert ln_gamma(float(x)) == pytest.approx(float(special.gammaln(x)),
                                                       rel=1e-12, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            ln_gamma(0.0)
        with pytest.raises(ValueError):
            ln_gamma(-3.0)
        with pytest.raises(ValueError):
            ln_gamma(float("nan"))


def quad_reg_upper(s, x):
    """Quadrature oracle: int_x^inf t^{s-1} e^-t dt / Gamma(s)."""
    val, _ = integrate.quad(lambda t: t ** (s - 1) * math.exp(-t), x, x + 200.0,
                            epsabs=1e-14, limit=200)
    return val / math.gamma(s)


class TestRegGamma:
    def test_upper_exponential_row(self):
        for x in (0.0, 0.3, 1.0, 4.0, 20.0):
            assert reg_upper_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_upper_at_zero(self):
        assert reg_upper_gamma(7.3, 0.0) == 1.0

    def test_upper_quadrature_oracle(self):
        # int_5^inf t^4 e^-t dt / Gamma(5) = 0.4404932850652...
        oracle = quad_reg_upper(5.0, 5.0)
        assert oracle == pytest.approx(0.4404932850652122, rel=1e-10)
        assert reg_upper_gamma(5.0, 5.0) == pytest.approx(oracle, rel=1e-10)

    def test_lower_complement_row(self):
        for x in (0.1, 1.0, 2.5):
            assert reg_lower_gamma(1.0, x) == pytest.approx(-math.expm1(-x), rel=1e-12)

    def test_lower_at_zero(self):
        assert reg_lower_gamma(4.2, 0.0) == 0.0

    def test_lower_quadrature_oracle(self):
        val, _ = integrate.quad(lambda t: t ** 2 * math.exp(-t), 0.0, 2.0,
                                epsabs=1e-14)
        oracle = val / math.gamma(3.0)
        assert oracle == pytest.approx(0.3233235838169365, rel=1e-10)
        assert reg_lower_gamma(3.0, 2.0) == pytest.approx(oracle, rel=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            reg_upper_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_upper_gamma(2.0, -0.5)
        with pytest.raises(ValueError):
            reg_lower_gamma(-1.0, 1.0)

    @settings(max_examples=200, derandomize=True)
    @given(st.floats(0.01, 50.0), st.floats(0.0, 50.0))
    def test_complement_identity(self, s, x):
        assert reg_upper_gamma(s, x) + reg_lower_gamma(s, x) == pytest.approx(
            1.0, abs=1e-12)

    def test_matches_mpmath(self):
        def upper_lower(s, x):
            # Each side is evaluated where it is the smaller one.
            if x >= s:
                q = mpmath.gammainc(s, x, mpmath.inf, regularized=True)
                return q, 1 - q
            p = mpmath.gammainc(s, 0, x, regularized=True)
            return 1 - p, p

        # 21 x 21 log-spaced grid: s from 0.5 to 1e4, x / s from 0.1 to 10.
        with mpmath.workdps(40):
            for s in np.geomspace(0.5, 1e4, 21).tolist():
                for x in (s * np.geomspace(0.1, 10.0, 21)).tolist():
                    q, p = upper_lower(s, x)
                    if q <= 1e-300 or p <= 1e-300:
                        continue
                    assert reg_upper_gamma(s, x) == pytest.approx(float(q), rel=1e-11)
                    assert reg_lower_gamma(s, x) == pytest.approx(float(p), rel=1e-11)
                    if float(q) < 1.0:
                        residual, _ = upper_lower(s, inv_reg_upper_gamma(s, float(q)))
                        assert float(residual) == pytest.approx(float(q), rel=1e-11)

    def test_strictly_decreasing_in_x(self):
        xs = np.linspace(0.0, 30.0, 40)
        qs = [reg_upper_gamma(6.0, float(x)) for x in xs]
        assert all(b < a for a, b in zip(qs, qs[1:]))


class TestInverse:
    def test_exponential_row(self):
        for alpha in (0.01, 0.05, 0.5, 0.9):
            assert inv_reg_upper_gamma(1.0, alpha) == pytest.approx(
                -math.log(alpha), rel=1e-10)

    @settings(max_examples=100, derandomize=True)
    @given(st.floats(0.1, 60.0), st.floats(0.05, 30.0))
    def test_round_trip(self, s, x):
        p = reg_upper_gamma(s, x)
        if not 1e-300 < p < 1.0 - 1e-10:
            return
        # Rounding p to double limits the recoverable x resolution by
        # ulp(p) / (pdf * x); skip points where that alone exceeds 1e-9.
        pdf = math.exp((s - 1.0) * math.log(x) - x - ln_gamma(s))
        if 2.3e-16 * max(p, 1.0 - p) / (pdf * x) > 1e-9:
            return
        assert inv_reg_upper_gamma(s, p) == pytest.approx(x, rel=1e-8)

    def test_bisection_oracle(self):
        # independent bisection on scipy's gammaincc
        lo, hi = 0.0, 200.0
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            if special.gammaincc(10.0, mid) > 0.05:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert oracle == pytest.approx(15.70521642211546, rel=1e-10)
        assert inv_reg_upper_gamma(10.0, 0.05) == pytest.approx(oracle, rel=1e-9)

    def test_residual_within_spec(self):
        for s, p in ((3.0, 0.7), (25.0, 0.01), (400.0, 0.25)):
            x = inv_reg_upper_gamma(s, p)
            assert abs(reg_upper_gamma(s, x) - p) <= 1e-10

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(ValueError):
                inv_reg_upper_gamma(3.0, bad)


def quad_bessel_k(order, x):
    """Quadrature oracle: K_n(x) = int_0^inf e^{-x cosh t} cosh(n t) dt."""
    val, _ = integrate.quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(order * t),
        0.0, 30.0, epsabs=1e-14, limit=300)
    return val


def bessel_k(order, x):
    return math.exp(ln_bessel_k_int(order, x))


class TestBesselK:
    def test_small_argument_leading_term(self):
        # x * K_1(x) -> 1 as x -> 0
        assert 1e-6 * bessel_k(1, 1e-6) == pytest.approx(1.0, rel=1e-4)

    def test_three_term_recurrence_point(self):
        m, x = 3, 2.0
        resid = (bessel_k(m + 1, x) - bessel_k(m - 1, x)
                 - (2 * m / x) * bessel_k(m, x))
        assert abs(resid) <= 1e-8 * bessel_k(m + 1, x)

    def test_recurrence_sweep(self):
        for m in (1, 2, 5, 10, 20):
            for x in (0.01, 0.3, 2.0, 11.0, 30.0):
                hi = bessel_k(m + 1, x)
                resid = hi - bessel_k(m - 1, x) - (2 * m / x) * bessel_k(m, x)
                assert abs(resid) <= 1e-8 * hi

    def test_quadrature_oracle(self):
        oracle = quad_bessel_k(2, 1.5)
        assert oracle == pytest.approx(0.5836559632566508, rel=1e-10)
        assert bessel_k(2, 1.5) == pytest.approx(oracle, rel=1e-8)

    def test_accuracy_grid_vs_scipy(self):
        for m in (1, 3, 8, 15):
            for x in np.geomspace(0.02, 50.0, 25):
                assert bessel_k(m, float(x)) == pytest.approx(
                    float(special.kn(m, x)), rel=1e-8)

    def test_log_variant_extreme_order(self):
        # far beyond float range: K_200(1e-3) ~ 1e1032
        got = ln_bessel_k_int(200, 1e-3)
        want = float(mpmath.log(mpmath.besselk(200, mpmath.mpf("0.001"))))
        assert got == pytest.approx(want, rel=1e-12)

    def test_log_variant_large_argument(self):
        got = ln_bessel_k_int(5, 800.0)
        want = float(mpmath.log(mpmath.besselk(5, 800)))
        assert got == pytest.approx(want, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            ln_bessel_k_int(2, 0.0)
        with pytest.raises(ValueError):
            ln_bessel_k_int(2, -1.0)
        with pytest.raises(ValueError):
            ln_bessel_k_int(-1, 1.0)


def rational_1f2(a, b1, b2, z, terms=30):
    """Exact-rational series oracle for 1F2 at rational arguments."""
    a, b1, b2, z = map(Fraction, (a, b1, b2, z))
    total = Fraction(0)
    term = Fraction(1)
    for k in range(terms):
        total += term
        term = term * (a + k) * z / ((b1 + k) * (b2 + k) * (k + 1))
    return float(total)


class TestHypergeom1F2:
    def test_z_zero_is_exactly_one(self):
        assert hypergeom_1f2(3.7, 1.2, 9.0, 0.0) == 1.0

    def test_unit_parameters_collapse(self):
        # 1F2(1;1,1;z) = sum z^k / (k!)^2 = I_0(2 sqrt(z)); the naive
        # "equals e^z" reading of the collapse is wrong.
        z = 0.5
        want = float(special.iv(0, 2.0 * math.sqrt(z)))
        got = hypergeom_1f2(1.0, 1.0, 1.0, z)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(float(mpmath.hyp1f2(1, 1, 1, z)), rel=1e-12)
        assert abs(got - math.exp(z)) > 0.08  # definitely not e^z

    def test_rational_series_oracle(self):
        oracle = rational_1f2(2, 3, 4, Fraction(1, 4))
        assert oracle == pytest.approx(1.0424566621570994, rel=1e-13)
        assert hypergeom_1f2(2.0, 3.0, 4.0, 0.25) == pytest.approx(oracle, rel=1e-12)

    def test_pole_parameters_rejected(self):
        # The last two: b1 * b2 underflows to 0 at the first term.
        for args in [(2.0, -3.0, 4.0, 0.1), (2.0, 3.0, 0.0, 0.1),
                     (1.0, 1e-300, 1e-300, 0.5), (1.0, 1e-200, 1e-200, 0.5)]:
            with pytest.raises(ValueError):
                hypergeom_1f2(*args)

    def test_non_convergence(self):
        with pytest.raises(ConvergenceError):
            hypergeom_1f2(1.0, 1.0, 1.0, 1e9)


class TestHarmonic:
    def test_first(self):
        assert harmonic(1) == 1.0

    def test_ten_and_db_form(self):
        h10 = harmonic(10)
        assert h10 == pytest.approx(2.9289682539682538, rel=1e-15)
        # 10 log10(H_10) = 4.667 dB, quoted as 4.7 dB in the source analysis
        assert 10.0 * math.log10(h10) == pytest.approx(4.67, abs=0.01)

    def test_recurrence_is_exact_in_summation_order(self):
        # harmonic(Q) is literally harmonic(Q-1) + 1/Q as one float add,
        # so the recurrence holds bit-exactly.
        for q in (2, 17, 400, 1999):
            assert harmonic(q) == harmonic(q - 1) + 1.0 / q

    def test_euler_mascheroni_limit(self):
        q = 10 ** 6
        assert harmonic(q) - (math.log(q) + np.euler_gamma) == pytest.approx(
            0.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            harmonic(0)


def pascal_binom(n, k):
    """Exact integer binomial via Pascal's triangle recurrence."""
    row = [1]
    for _ in range(n):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
    return row[k]


class TestLogBinom:
    def test_choose_zero(self):
        for n in (0, 1, 9, 60):
            assert log_binom(n, 0) == 0.0

    def test_known_coefficient(self):
        assert log_binom(10, 5) == pytest.approx(math.log(252.0), rel=1e-14)

    def test_pascal_oracle(self):
        oracle = pascal_binom(50, 17)
        assert oracle == 9847379391150
        assert log_binom(50, 17) == pytest.approx(math.log(oracle), rel=1e-13)

    def test_exponentiation_near_exact(self):
        for n in (12, 31, 60):
            for k in range(0, n + 1, 5):
                assert math.exp(log_binom(n, k)) == pytest.approx(
                    pascal_binom(n, k), rel=5e-13)

    def test_domain(self):
        with pytest.raises(ValueError):
            log_binom(5, 6)
        with pytest.raises(ValueError):
            log_binom(-1, 0)


_USER = DetectorParams(m=2, lam=1.0)

# Each argument that counts something (samples, users, votes, states, dwells).
# The ones counted from 0 are shifted down one so that 0 maps to -1.
COUNT_SITES = {
    "DetectorParams.m": lambda x: DetectorParams(m=x, lam=1.0),
    "calibrate_lambda.m": lambda x: calibrate_lambda(x, 0.05),
    "FusionParams.n_users": lambda x: FusionParams(n_users=x, n_vote=1, per_user=_USER),
    "FusionParams.n_vote": lambda x: FusionParams(n_users=3, n_vote=x, per_user=_USER),
    "allocate_samples.m": lambda x: allocate_samples(x, 2),
    "allocate_samples.q": lambda x: allocate_samples(4, x),
    "ReconfigParams.q": lambda x: ReconfigParams(q=x, m=2, lam=1.0),
    "ReconfigParams.m": lambda x: ReconfigParams(q=2, m=x, lam=1.0),
    "diversity_reconfig.m": lambda x: diversity_reconfig(x, 2),
    "diversity_reconfig.q": lambda x: diversity_reconfig(2, x),
    "avg_pmd_selection.q": lambda x: avg_pmd_selection(2, 1.0, 1.0, x),
    "selection_gain.q": lambda x: selection_gain(x),
    "reduced_samples.m": lambda x: reduced_samples(x, 2),
    "reduced_samples.q": lambda x: reduced_samples(4, x),
    "harmonic.q": lambda x: harmonic(x),
    "log_binom.n": lambda x: log_binom(x - 1, 0),
    "log_binom.k": lambda x: log_binom(5, x - 1),
    "ln_bessel_k_int.order": lambda x: ln_bessel_k_int(x - 1, 1.0),
}


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1.5, 0])
@pytest.mark.parametrize("site", sorted(COUNT_SITES))
def test_count_arguments_reject_non_counts_with_value_error(site, bad):
    with pytest.raises(ValueError):
        COUNT_SITES[site](bad)
