"""Reconfigurable-antenna sensing analytics: state switching and selection.

State switching cycles the antenna through Q radiation states inside one
sensing window, dwelling l_j consecutive samples on state j, so the detector
statistic is a weighted sum of independent chi-squares
Y = sum_j (1 + gamma_j) x_j with x_j ~ chi-square(2 l_j).  State selection
uses channel knowledge to sense the whole window on the best of the Q
states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from scipy import special as _sp

from .channel import AvgSnr
from .detector import _CACHE_SIZE, DetectorParams, GainSummary, _faded_miss
from .specfun import ConvergenceError, _count, harmonic, ln_gamma

# Beyond z = 600, E_l(z) nears the smallest double and a continued fraction
# gives e^z E_l(z); math.exp overflows past 709.78.
_EXPN_MAX_Z, _CF_MAX_TERMS, _LOG_MAX = 600.0, 100, 709.0


def allocate_samples(m: int, q: int) -> tuple[int, ...]:
    """Equal-split dwell allocation of M samples over Q antenna states.

    Each state gets floor(M/Q) samples and the remainder goes one sample at a
    time to the lowest-indexed states, so all M samples are used.  This
    maximizes prod(l_j - 1), the figure of merit of the averaged switching
    asymptote.  With M < Q only M states can be visited: M singleton dwells.
    """
    m, q = _count(m, "sample count M"), _count(q, "state count Q")
    if m < q:
        return (1,) * m
    base, extra = divmod(m, q)
    return (base + 1,) * extra + (base,) * (q - extra)


@dataclass(frozen=True)
class ReconfigParams:
    """Reconfigurable-antenna window; the switching dwells ``alloc`` are allocate_samples(M, Q)."""

    q: int
    m: int
    lam: float

    def __post_init__(self):
        _count(self.q, "state count Q")
        _count(self.m, "sample count M")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"threshold must be finite and > 0, got {self.lam!r}")

    @property
    def alloc(self) -> tuple[int, ...]:
        return allocate_samples(self.m, self.q)


def _dwell_average(l: int, gamma_bar: float) -> float:
    """E[(1 + gamma)^{-l}] = z e^z E_l(z) for gamma ~ Exp(gamma_bar), z = 1/gamma_bar.

    scipy's expn where E_l(z) is far from underflow; beyond, the continued
    fraction e^z E_l(z) = 1/(z + l - l/(z + l + 2 - 2 (l + 1)/(z + l + 4 - ...)))
    by the modified Lentz method, which converges in a few terms there.
    """
    z = 1.0 / gamma_bar
    if z < _EXPN_MAX_Z:
        return z * math.exp(z) * float(_sp.expn(l, z))
    b, c = z + l, math.inf
    value = d = 1.0 / b
    for i in range(1, _CF_MAX_TERMS):
        a = -i * (l - 1.0 + i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        value *= c * d
        if abs(c * d - 1.0) < 1e-16:
            return z * value
    raise ConvergenceError(f"dwell-average continued fraction stalled at l={l}, z={z}")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _switching_prefactor(params: ReconfigParams):
    """log(lam^M / Gamma(M+1)) and the distinct dwells as (l, multiplicity)."""
    m, alloc = params.m, params.alloc
    return (m * math.log(params.lam) - ln_gamma(m + 1.0),
            tuple((l, alloc.count(l)) for l in sorted(set(alloc))))


def avg_pmd_switching(params: ReconfigParams, avg) -> float:
    """Rayleigh-averaged switching miss probability from the asymptote.

    lam^M/Gamma(M+1) times the closed-form dwell averages
    E[(1+gamma_j)^{-l_j}]: the raw (unclamped) asymptote, formed in the log
    domain; past the double range (M >= 1000 at moderate SNR) the call
    raises ConvergenceError.  The prefactor and the dwell multiplicities are
    computed once per (M, Q, lam).
    """
    gamma_bar = AvgSnr.coerce(avg).gamma_bar
    log_val, dwells = _switching_prefactor(params)
    log_val += sum(count * math.log(_dwell_average(l, gamma_bar)) for l, count in dwells)
    if log_val > _LOG_MAX:
        raise ConvergenceError(f"switching asymptote e^{log_val:.1f} exceeds the double range")
    return math.exp(log_val)


def diversity_reconfig(m: int, q: int) -> GainSummary:
    """Diversity order min{M, Q} of both reconfigurable-antenna schemes.

    The switching asymptote does not support a trustworthy coding-gain
    number, so coding_gain stays unquantified; the selection gain is
    ``selection_gain(q)``.
    """
    return GainSummary(diversity=float(min(_count(m, "sample count M"),
                                           _count(q, "state count Q"))))


def avg_pmd_selection(m: int, lam: float, avg, q: int) -> float:
    """Average selection miss: conditional miss integrated over the best state.

    Uses the true max-of-Q CDF (what Monte Carlo matches), through
    ``detector._faded_miss``.
    """
    params = DetectorParams(m=m, lam=lam)
    q = _count(q, "state count Q")
    return _faded_miss(params.m, params.lam, AvgSnr.coerce(avg).gamma_bar, q)


def selection_gain(q: int) -> tuple[float, float]:
    """Selection gain E[gamma_max]/E[gamma] = H_Q, as (linear, dB)."""
    h = harmonic(_count(q, "state count Q"))
    return h, 10.0 * math.log10(h)


def reduced_samples(m: int, q: int) -> int:
    """Reduced sensing budget M' = max(ceil(M / H_Q), Q).

    Trades the selection gain for a shorter sensing period at matched
    switching-scheme performance, never dropping below one sample per state.
    """
    q = _count(q, "state count Q")
    m = _count(m, "sample count M", q)
    return max(math.ceil(m / harmonic(q)), q)
