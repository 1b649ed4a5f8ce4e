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

# The fading rule's Gauss-Legendre orders 20 (value) and 16 (check), peak grid,
# panel edges (see ``_faded_miss``) and largest relative error estimate.
_ORDER = 20
(_X20, _W20), (_X16, _W16) = (np.polynomial.legendre.leggauss(n) for n in (_ORDER, 16))
_NODES = np.concatenate(((_X20 + 1.0) / 2.0, (_X16 + 1.0) / 2.0))
_SEARCH = np.geomspace(1e-13, 800.0, 320)
with np.errstate(over="ignore"):
    _EXPM1_SEARCH = np.expm1(_SEARCH)  # inf at the top, where the fading CDF is 1
_DROPS, _SPAN = np.array([1.5, 5.0, 11.0, 19.0, 29.0, 41.0, 55.0]), 60.0
_KNEE, _BULK = 2.0 ** np.arange(-2, 7), np.array([-4.0, -2.0, -1.0, 1.0, 2.0, 4.0])
_TOL = 1e-10
# Operating points each SNR-independent cache keeps; fig1-fig3 together fill 12.
_CACHE_SIZE = 128


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _threshold_side(m: int, lam: float):
    """The terms of ``_faded_miss`` that do not depend on the SNR.

    log(lam/2), ln Gamma(M), the Gamma factor M log g - g on ``_SEARCH``
    and the bulk edges, the two arrays read-only.
    """
    log_half = math.log(lam / 2.0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        log_g = log_half - _SEARCH
        gamma_part = m * log_g - np.exp(log_g)
    bulk = log_half - math.log(m) + _BULK / math.sqrt(m)
    gamma_part.flags.writeable = bulk.flags.writeable = False
    return log_half, math.lgamma(m), gamma_part, bulk


def _faded_miss(m: int, lam: float, gamma_bar: float, q: int = 1) -> float:
    """int_0^{lam/2} f_M(g) F(lam/(2g) - 1) dg: Gamma(M) density, fading CDF F.

    F = (1 - e^{-x/gamma_bar})^q, the best of q Rayleigh states.  Over
    u = log(lam/(2g)) the log-integrand is concave, so the grid's maximum is
    its one peak.  Panels end where it has fallen by each of ``_DROPS`` nats
    (the range 60 nats down), where (e^u - 1)/gamma_bar is 2^k, and around
    the Gamma bulk in units of 1/sqrt(M).  The order-16 rule's distance from
    the order-20 value is the error estimate.  A result below the smallest
    double reads 0.0; one that rounding lifts above 1 reads 1.0.  The terms
    that depend on (M, lam) alone come from ``_threshold_side``, computed
    once per operating point; only the fading factor, the peak and panel
    search and the panels are formed at each SNR.
    """
    log_half, ln_gamma_m, gamma_part, bulk = _threshold_side(m, lam)
    scale = -1.0 / gamma_bar

    def log_integrand(u):  # less ln Gamma(M), which the result adds back
        log_g = log_half - u
        return m * log_g - np.exp(log_g) + q * np.log(-np.expm1(np.expm1(u) * scale))

    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        values = gamma_part + q * np.log(-np.expm1(_EXPM1_SEARCH * scale))
        top = int(values.argmax())  # finite: at u = 800 the fading CDF is 1
        peak = float(values[top])
        drop = peak - values
        first, last = (drop <= _SPAN).nonzero()[0][[0, -1]]
        lo, hi = _SEARCH[first - 1] if first else 0.0, _SEARCH[min(last + 1, _SEARCH.size - 1)]
        level = _DROPS.searchsorted(drop[first:last + 1])
        edges = np.concatenate((
            (lo, hi, _SEARCH[top]), _SEARCH[first + 1:last + 1][level[1:] != level[:-1]],
            bulk,
            np.log1p(gamma_bar * _KNEE)))
        edges = np.sort(edges[(edges >= lo) & (edges <= hi)])  # a repeat adds width 0
        widths = (edges[1:] - edges[:-1])[:, None]
        h = np.exp(log_integrand(edges[:-1, None] + widths * _NODES) - peak) * widths
    total = float((h[:, :_ORDER] @ _W20).sum()) / 2.0
    error = abs(total - float((h[:, _ORDER:] @ _W16).sum()) / 2.0)
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
    return min(1.0, max(0.0, 1.0 - _faded_miss(params.m, params.lam, gamma_bar)))


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
