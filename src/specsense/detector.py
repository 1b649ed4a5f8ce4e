"""Single-user energy-detection analytics.

Sample convention: the detector statistic Y is chi-square with 2M degrees of
freedom under H0, i.e. each complex sample carries unit variance per real
dimension, and (1 + gamma) per real dimension under H1.  The Monte Carlo
engine draws from exactly this law, so closed forms and simulation agree by
construction.

False alarm:  P_F = Q(M, lambda / 2)
Detection:    P_D = Q(M, lambda / (2 (1 + gamma)))
with Q the regularized upper incomplete gamma function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate as _integrate

from .channel import AvgSnr
from .specfun import (
    ConvergenceError,
    inv_reg_upper_gamma,
    ln_bessel_k_int,
    ln_gamma,
    reg_upper_gamma,
)

#: Exponential-substitution tail cutoff for the SNR-averaging quadrature.
_TAIL_CUT = 50.0


def _knee_knots(knee: float, cut: float = _TAIL_CUT) -> list[float] | None:
    """Geometric knot fan bracketing a sharp integrand transition at ``knee``."""
    if not (knee > 0.0 and math.isfinite(knee)):
        return None
    knots = sorted({knee * f for f in (0.01, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0)})
    knots = [k for k in knots if 0.0 < k < cut]
    return knots or None


@dataclass(frozen=True)
class DetectorParams:
    """One energy detector: sample count M, threshold lam, NP level alpha."""

    m: int
    lam: float
    alpha: float | None = None

    def __post_init__(self):
        if int(self.m) != self.m or self.m < 1:
            raise ValueError(f"sample count M must be an integer >= 1, got {self.m!r}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"threshold must be finite and > 0, got {self.lam!r}")
        if self.alpha is not None and not 0.0 < self.alpha < 1.0:
            raise ValueError(f"false-alarm level must be in (0, 1), got {self.alpha!r}")

    @classmethod
    def calibrated(cls, m: int, alpha: float) -> "DetectorParams":
        """Neyman-Pearson calibration: threshold such that P_F = alpha."""
        return cls(m=m, lam=calibrate_lambda(m, alpha), alpha=alpha)


@dataclass(frozen=True)
class GainSummary:
    """Diversity order and (where quantified) coding / selection gains."""

    diversity: float
    coding_gain: float | None = None
    selection_gain: float | None = None

    def __post_init__(self):
        if self.diversity < 0.0:
            raise ValueError("diversity order must be >= 0")
        if self.coding_gain is not None and self.coding_gain <= 0.0:
            raise ValueError("coding gain must be > 0 when quantified")

    @property
    def coding_gain_db(self) -> float | None:
        if self.coding_gain is None:
            return None
        return 10.0 * math.log10(self.coding_gain)

    @property
    def selection_gain_db(self) -> float | None:
        if self.selection_gain is None:
            return None
        return 10.0 * math.log10(self.selection_gain)


def pf_single(m: int, lam: float) -> float:
    """False alarm probability Q(M, lambda/2) of one energy detector."""
    params = DetectorParams(m=m, lam=lam)
    return reg_upper_gamma(float(params.m), params.lam / 2.0)


def pd_single(m: int, lam: float, gamma: float) -> float:
    """Detection probability at instantaneous SNR gamma >= 0."""
    params = DetectorParams(m=m, lam=lam)
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"instantaneous SNR must be finite and >= 0, got {gamma!r}")
    return reg_upper_gamma(float(params.m), params.lam / (2.0 * (1.0 + gamma)))


def calibrate_lambda(m: int, alpha: float) -> float:
    """Threshold lambda with P_F = alpha (alpha-level NP test)."""
    if int(m) != m or m < 1:
        raise ValueError(f"sample count M must be an integer >= 1, got {m!r}")
    return 2.0 * inv_reg_upper_gamma(float(m), alpha)


def avg_pd_numeric(m: int, lam: float, avg) -> float:
    """Rayleigh-averaged detection probability by adaptive quadrature.

    Integrates Q(M, lam/(2(1+gamma))) against the exponential SNR density,
    substituting gamma = gamma_bar * t with the tail cut at t = 50
    (truncation error < 2e-22).  Absolute tolerance 1e-10.
    """
    params = DetectorParams(m=m, lam=lam)
    gamma_bar = AvgSnr.coerce(avg).gamma_bar
    m_f = float(params.m)

    def integrand(t: float) -> float:
        return (reg_upper_gamma(m_f, params.lam / (2.0 * (1.0 + gamma_bar * t)))
                * math.exp(-t))

    # The integrand knee sits where the gamma argument crosses M.  At large
    # gamma_bar the whole transition lives at t ~ knee << 1, far below the
    # default subdivision scale, so fan geometric knots across it; otherwise
    # the adaptive rule can step straight over the feature and report a
    # spuriously small error.
    knee = (params.lam / (2.0 * m_f) - 1.0) / gamma_bar
    points = _knee_knots(knee)
    value, abserr = _integrate.quad(integrand, 0.0, _TAIL_CUT, points=points,
                                    epsabs=1e-10, epsrel=1e-12, limit=400)
    if abserr > 1e-7:
        raise ConvergenceError(
            f"avg_pd_numeric quadrature error {abserr:.2e} at M={m}, lam={lam}, "
            f"gamma_bar={gamma_bar}")
    return min(1.0, max(0.0, value))


def avg_pd_closed(m: int, lam: float, avg) -> float:
    """Closed-form averaged detection probability (Bessel-K form).

    (2 e^{1/gamma_bar} / Gamma(M)) (lam / 2 gamma_bar)^{M/2}
        K_M(sqrt(2 lam / gamma_bar)),
    evaluated in the log domain and clamped to [0, 1].  This form is itself a
    high-SNR approximation of the exact average; expect it to overshoot at
    low gamma_bar.
    """
    params = DetectorParams(m=m, lam=lam)
    gamma_bar = AvgSnr.coerce(avg).gamma_bar
    m_i = int(params.m)
    ln_value = (math.log(2.0) + 1.0 / gamma_bar - ln_gamma(float(m_i))
                + 0.5 * m_i * math.log(params.lam / (2.0 * gamma_bar))
                + ln_bessel_k_int(m_i, math.sqrt(2.0 * params.lam / gamma_bar)))
    if ln_value >= 0.0:
        return 1.0
    return math.exp(ln_value)


def asymptotic_pmd_single(m: int, lam: float, avg) -> float:
    """High-SNR missed-detection asymptote lam / (2 gamma_bar (M - 1)).

    Returned raw (it exceeds 1 at low gamma_bar) so log-domain slope fits
    stay meaningful; callers that report a probability clamp it.
    """
    params = DetectorParams(m=m, lam=lam)
    if params.m < 2:
        raise ValueError(f"asymptotic form needs M >= 2, got M={m}")
    gamma_bar = AvgSnr.coerce(avg).gamma_bar
    return params.lam / (2.0 * gamma_bar * (params.m - 1))


def gains_single(m: int, lam: float) -> GainSummary:
    """Non-cooperative gains: diversity 1, coding gain (M - 1) / lambda."""
    params = DetectorParams(m=m, lam=lam)
    if params.m < 2:
        raise ValueError(f"coding gain needs M >= 2, got M={m}")
    return GainSummary(diversity=1.0, coding_gain=(params.m - 1) / params.lam)
