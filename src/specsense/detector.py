"""Single-user energy-detection analytics.

Sample convention: the detector statistic Y is chi-square with 2M degrees of
freedom under H0, i.e. each complex sample carries unit variance per real
dimension, and (1 + gamma) per real dimension under H1.  The Monte Carlo
engine draws from exactly this law, so closed forms and simulation agree by
construction.

False alarm:  P_F = Q(M, lambda / 2)
Detection:    P_D = Q(M, lambda / (2 (1 + gamma)))
with Q the regularized upper incomplete gamma function.
The faded miss comes from ``_faded_miss`` directly, not as 1 - P_D.  The
threshold side of its rule depends on (M, lambda) alone, so it is computed
once per operating point and reused at every SNR; no value moves by a bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import AvgSnr
from .specfun import (
    ConvergenceError,
    _count,
    inv_reg_upper_gamma,
    ln_bessel_k_int,
    ln_gamma,
    reg_upper_gamma,
)

# The fading rule (see ``_faded_miss``): peak search grid over u = log(lam/(2g))
# and its image x = log(e^u - 1); even interval count (1024 keep the estimate
# near rounding over the input box, where 512 raise at M = 1, Q = 64) and node
# fractions; window depth below the peak in nats; largest relative error estimate.
_SEARCH = np.geomspace(1e-13, 800.0, 320)
with np.errstate(over="ignore"):
    _EXPM1_SEARCH = np.expm1(_SEARCH)  # inf at the top, where the fading CDF is 1
    _X_SEARCH = np.log(_EXPM1_SEARCH)
_K = 1024
_STEPS = np.linspace(0.0, 1.0, _K + 1)
_SPAN = 60.0
_TOL = 1e-10
# Operating points each SNR-independent cache keeps; fig1-fig3 together fill 12.
_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _threshold_side(m: int, lam: float):
    """The terms of ``_faded_miss`` that do not depend on the SNR.

    log(lam/2), ln Gamma(M) and the Gamma factor M log g - g on ``_SEARCH``,
    the array read-only.
    """
    log_half = math.log(lam / 2.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_g = log_half - _SEARCH
        gamma_part = m * log_g - np.exp(log_g)
    gamma_part.flags.writeable = False
    return log_half, math.lgamma(m), gamma_part


def _faded_miss(m: int, lam: float, gamma_bar: float, q: int = 1) -> float:
    """int_0^{lam/2} f_M(g) F(lam/(2g) - 1) dg: Gamma(M) density, fading CDF F.

    F = (1 - e^{-t/gamma_bar})^q, the best of q Rayleigh states.  Over
    u = log(lam/(2g)) the log-integrand is concave, so the maximum on
    ``_SEARCH`` is its one peak.  The window spans the search points within
    ``_SPAN`` nats of it and one more each side; on every reference cell the
    integral outside it is under 1e-26 of the whole.  Over x = log(e^u - 1),
    with t = e^x, u = log1p(t) and du/dx = e^{x - u}, the log-integrand's
    singularities lie at Im x = +-pi/2 and +-pi, so the trapezoid rule on
    ``_K`` + 1 uniform nodes converges geometrically; the same rule on every
    other node is the error estimate.  A window from the first search point
    starts at x = log(expm1(1e-13)), not at u = 0: over the input box the
    integrand there is at least 43 nats below its peak (44.6 at M = 10^4,
    alpha = 0.9, Q = 1, -40 dB) and falls further left as e^{(q+1)x}, so the
    part left out is about e^-43/(q+1) of the peak.  A result below the
    smallest double reads 0.0; one that rounding lifts above 1 reads 1.0.
    """
    log_half, ln_gamma_m, gamma_part = _threshold_side(m, lam)
    scale = -1.0 / gamma_bar
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = gamma_part + q * np.log(-np.expm1(_EXPM1_SEARCH * scale))
        first, last = (values >= values.max() - _SPAN).nonzero()[0][[0, -1]]
        lo, hi = _X_SEARCH[max(first - 1, 0)], _X_SEARCH[min(last + 1, _SEARCH.size - 1)]
        x = lo + (hi - lo) * _STEPS
        t = np.exp(x)
        u = np.log1p(t)
        log_g = log_half - u
        log_h = m * log_g - np.exp(log_g) + q * np.log(-np.expm1(t * scale)) + x - u
        peak = log_h.max()
        h = np.exp(log_h - peak)
    ends = (h[0] + h[-1]) / 2.0
    step = (hi - lo) / _K
    total = float(h.sum() - ends) * step
    error = abs(total - float(h[::2].sum() - ends) * 2.0 * step)
    if not error <= _TOL * total:
        raise ConvergenceError(f"fading average error estimate {error / total:.1e} at "
                               f"M={m}, lam={lam}, gamma_bar={gamma_bar}, Q={q}")
    return min(1.0, math.exp(peak - ln_gamma_m + math.log(total)))


@dataclass(frozen=True)
class DetectorParams:
    """One energy detector: sample count M and threshold lam."""

    m: int
    lam: float

    def __post_init__(self):
        _count(self.m, "sample count M")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"threshold must be finite and > 0, got {self.lam!r}")


@dataclass(frozen=True)
class GainSummary:
    """Diversity order and (where quantified) coding gain."""

    diversity: float
    coding_gain: float | None = None

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
    return 2.0 * inv_reg_upper_gamma(float(_count(m, "sample count M")), alpha)


def avg_pd_numeric(m: int, lam: float, avg) -> float:
    """Rayleigh-averaged detection probability, 1 - ``_faded_miss``.

    Callers that want the miss itself take it from the rule, which keeps its
    relative accuracy deep in the tail.
    """
    params = DetectorParams(m=m, lam=lam)
    gamma_bar = AvgSnr.coerce(avg).gamma_bar
    return 1.0 - _faded_miss(params.m, params.lam, gamma_bar)


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


def gains_single(m: int, lam: float) -> GainSummary:
    """Non-cooperative gains: diversity 1, coding gain (M - 1) / lambda."""
    params = DetectorParams(m=m, lam=lam)
    if params.m < 2:
        raise ValueError(f"coding gain needs M >= 2, got M={m}")
    return GainSummary(diversity=1.0, coding_gain=(params.m - 1) / params.lam)
