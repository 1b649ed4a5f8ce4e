"""Cooperative n-out-of-N hard-decision fusion analytics.

N identically configured secondary users each take a local energy-detection
decision; the fusion center declares the primary present when at least n
users vote present.  Vote counts are binomial, so global probabilities are
binomial tail sums over the local probabilities.  The reporting channel is
assumed error free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import special as _sp

from .channel import AvgSnr
from .detector import DetectorParams, GainSummary, _faded_miss, calibrate_lambda, pf_single
from .specfun import ConvergenceError, _count, log_binom


@dataclass(frozen=True)
class FusionParams:
    """N cooperating users, global vote threshold n, shared local detector."""

    n_users: int
    n_vote: int
    per_user: DetectorParams

    def __post_init__(self):
        if _count(self.n_vote, "vote threshold n") > _count(self.n_users, "user count N"):
            raise ValueError(
                f"vote threshold n must be an integer in [1, N], got {self.n_vote!r}")


def binom_tail(n: int, k_min: int, p: float) -> float:
    """P(X >= k_min) for X ~ Binomial(n, p), as I_p(k_min, n - k_min + 1)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability must be in [0, 1], got {p!r}")
    if k_min <= 0:
        return 1.0
    if k_min > n:
        return 0.0
    return float(_sp.betainc(k_min, n - k_min + 1, p))


def global_pf(params: FusionParams) -> float:
    """Global false alarm: binomial tail over the local P_F."""
    p_local = pf_single(params.per_user.m, params.per_user.lam)
    return binom_tail(params.n_users, params.n_vote, p_local)


def global_pmd(params: FusionParams, avg) -> float:
    """Global missed detection: at least N - n + 1 of the N users miss.

    A binomial tail over the local miss taken directly from the fading rule,
    which keeps its digits deep in the tail.
    """
    pmd_local = _faded_miss(params.per_user.m, params.per_user.lam,
                            AvgSnr.coerce(avg).gamma_bar)
    return binom_tail(params.n_users, params.n_users - params.n_vote + 1, pmd_local)


def calibrate_local_lambda_global(n_users: int, n_vote: int, m: int,
                                  alpha: float) -> float:
    """Local threshold such that the global false alarm equals alpha.

    Inverts binom_tail(N, n, p) = alpha for the local P_F through the inverse
    incomplete beta, then maps p to lambda with ``calibrate_lambda``.  The
    result satisfies |P_F_G - alpha| <= 1e-9.  With N = 1 the inverse beta
    returns alpha itself, so the threshold is the single user's.
    """
    params = FusionParams(n_users=n_users, n_vote=n_vote,
                          per_user=DetectorParams(m=m, lam=1.0))
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"false-alarm level must be in (0, 1), got {alpha!r}")
    p = float(_sp.betaincinv(n_vote, n_users - n_vote + 1, alpha))
    lam = calibrate_lambda(m, p)
    achieved = binom_tail(n_users, n_vote, pf_single(m, lam))
    if abs(achieved - alpha) > 1e-9:
        raise ConvergenceError(
            f"global calibration missed alpha: |{achieved} - {alpha}| > 1e-9")
    return lam


def gains_coop(params: FusionParams) -> GainSummary:
    """Cooperative gains: d = N - n + 1, A = C(N, n-1)^{1/d} (M-1)/lambda.

    The vote threshold n = 1 (OR rule) maximizes the diversity order.
    """
    if params.per_user.m < 2:
        raise ValueError(f"coding gain needs M >= 2, got M={params.per_user.m}")
    d = params.n_users - params.n_vote + 1
    log_a = (log_binom(params.n_users, params.n_vote - 1) / d
             + math.log((params.per_user.m - 1) / params.per_user.lam))
    return GainSummary(diversity=float(d), coding_gain=math.exp(log_a))
