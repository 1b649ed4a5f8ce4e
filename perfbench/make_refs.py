"""Regenerate ``analytic_refs.json``: mpmath values for the figures-analytic check.

Run from the repository root (needs mpmath; takes about 30 s):

    python3 perfbench/make_refs.py

For every curve of fig1-fig3 at the points of ``FiguresAnalytic.ref_grid_db``
it computes pmd_analytic independently of specsense's kernels: thresholds
are solved with mpmath root finding, fading averages with mpmath
quadrature at 30 digits.  Each point carries the tolerance its function's
documentation states:

* noncoop (``avg_pd_numeric``) and selection (``avg_pmd_selection``):
  absolute 1e-10.
* coop (``global_pmd``): the local miss's absolute 1e-10 carried through the
  binomial fusion sum, i.e. the largest change of the global miss when the
  local miss moves by +-1e-10.
* switching (``avg_pmd_switching``, the averaged small-CDF asymptote): its
  own formula; each dwell average is requested to relative 1e-12 (absolute
  1e-13), so the product over dwells carries the sum of those relative
  errors.

specsense's own thresholds agree with the mpmath roots to about 1e-13
relative, which moves pmd far less than these tolerances.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from specsense import cli  # noqa: E402

from perfbench.workloads import FiguresAnalytic  # noqa: E402

mp.mp.dps = 30
LOCAL_ABS_TOL = 1e-10


def upper_inverse(m: int, p) -> mp.mpf:
    """x with Q(m, x) = p."""
    return mp.findroot(lambda x: mp.gammainc(m, x, mp.inf, regularized=True) - p,
                       mp.mpf(m))


def threshold(m: int, alpha: float) -> mp.mpf:
    return 2 * upper_inverse(m, mp.mpf(alpha))


def global_threshold(n_users: int, n_vote: int, m: int, alpha: float) -> mp.mpf:
    alpha = mp.mpf(alpha)
    if n_users == 1:
        return threshold(m, alpha)
    # P(Binomial(N, p) >= n) = I_p(n, N - n + 1) = alpha, solved on the log scale.
    log_p = mp.findroot(
        lambda u: mp.betainc(n_vote, n_users - n_vote + 1, 0, mp.exp(u),
                             regularized=True) - alpha,
        mp.log(alpha / n_users))
    return 2 * upper_inverse(m, mp.exp(log_p))


def faded_miss(m: int, lam, gamma_bar, weight) -> mp.mpf:
    """int_0^inf P(M, lam / (2 (1 + gamma_bar t))) weight(t) dt."""
    knee = (lam / (2 * m) - 1) / gamma_bar
    points = [mp.mpf(0)]
    if knee > 0:
        points += [knee * f for f in (mp.mpf("0.01"), mp.mpf("0.1"), mp.mpf("0.3"),
                                      1, 3, 10, 100)]
    points = sorted(p for p in set(points) if p < 60) + [mp.mpf(60), mp.inf]
    value, err = mp.quad(
        lambda t: mp.gammainc(m, 0, lam / (2 * (1 + gamma_bar * t)), regularized=True)
        * weight(t), points, error=True)
    if err > max(mp.mpf("1e-20"), mp.mpf("1e-12") * abs(value)):
        raise RuntimeError(f"mpmath quadrature error {err} at M={m}, gamma_bar={gamma_bar}")
    return value


def lower_binomial_sum(n_users: int, n_vote: int, local_miss) -> mp.mpf:
    """Global miss: fewer than n of N users vote present."""
    return sum(mp.binomial(n_users, k) * local_miss ** (n_users - k) * (1 - local_miss) ** k
               for k in range(n_vote))


def reference(config, alpha: float, snr_db: float) -> tuple[float, float]:
    """(pmd, tolerance) of one analytic column of a curve calibrated at ``alpha``."""
    gamma_bar = mp.mpf(10) ** (mp.mpf(snr_db) / 10)
    p = config.payload
    if config.variant == "noncoop":
        lam = threshold(p.m, alpha)
        return float(faded_miss(p.m, lam, gamma_bar, lambda t: mp.exp(-t))), LOCAL_ABS_TOL
    if config.variant == "coop":
        d = p.per_user
        lam = global_threshold(p.n_users, p.n_vote, d.m, alpha)
        local = faded_miss(d.m, lam, gamma_bar, lambda t: mp.exp(-t))
        value = lower_binomial_sum(p.n_users, p.n_vote, local)
        tol = max(abs(lower_binomial_sum(p.n_users, p.n_vote,
                                         min(1, max(0, local + s * LOCAL_ABS_TOL))) - value)
                  for s in (-1, 1))
        return float(value), float(tol)
    if config.variant == "reconfig-selection":
        q = p.q
        lam = threshold(p.m, alpha)
        weight = lambda t: q * mp.exp(-t) * (-mp.expm1(-t)) ** (q - 1)  # noqa: E731
        return float(faded_miss(p.m, lam, gamma_bar, weight)), LOCAL_ABS_TOL
    # Switching: lam^M / M! * prod_j E[(1 + gamma)^-l_j], gamma ~ Exp(gamma_bar),
    # with E[(1 + gamma)^-l] = e^z z E_l(z) at z = 1 / gamma_bar.
    m = sum(p.alloc)
    lam = threshold(p.m, alpha)
    z = 1 / gamma_bar
    log_value = m * mp.log(lam) - mp.log(mp.factorial(m))
    rel_tol = 0.0
    for dwell in p.alloc:
        average = mp.exp(z) * z * mp.expint(dwell, z)
        log_value += mp.log(average)
        rel_tol += max(1e-12, 1e-13 / float(average))
    value = min(mp.mpf(1), mp.exp(log_value))
    return float(value), rel_tol * float(value)


def main() -> None:
    workload = FiguresAnalytic()
    points = []
    for which in workload.figures:
        for label, sc in cli.figure_setups(which):
            config = cli.build_config(sc)
            for snr_db in workload.ref_grid_db:
                pmd, tol = reference(config, sc.alpha, snr_db)
                points.append({"figure": which, "label": label, "snr_db": snr_db,
                               "pmd": pmd, "tol": tol})
            print(which, label, file=sys.stderr)
    doc = {
        "generator": "perfbench/make_refs.py",
        "mpmath": mp.__version__,
        "dps": mp.mp.dps,
        "points": points,
    }
    workload.refs_path.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
