"""Regenerate ``faded_miss_refs.json``: exact Rayleigh-averaged miss probabilities.

Run from the repository root (needs mpmath only; takes about 10 min on one
core, most of it in the M = 10^4 cells of form B):

    python3 tests/reference/make_faded_miss_refs.py [--out PATH]

Nothing here imports specsense.  One energy detector takes M samples; its
statistic is (1 + gamma) chi2(2M) under H1, so with G ~ Gamma(M, 1) it
misses when G <= lam / (2 (1 + gamma)).  gamma is the SNR of the best of Q
independent Rayleigh states (Q = 1: one state), whose CDF is
F(x) = (1 - exp(-x / gamma_bar))^Q.  Each cell is computed twice by mpmath
quadrature, over u = log(lam / (2 g)) in form A and u = log(1 + x) in form B:

* form A (gamma variable): int f_M(g) F(lam / (2g) - 1) dg, the Gamma(M)
  density times the fading CDF;
* form B (SNR variable): int P(M, lam / (2 (1 + x))) dF(x), the Gamma(M)
  CDF (mpmath ``gammainc``) times the fading density.

The two agree by integration by parts, and a cell is written only when they
agree to 1e-12 relative.  The threshold is lam = 2 Q^{-1}(M, p), rounded to
a double, and both forms integrate at that double, so a test that passes the
stored ``lam`` back computes the same integral.  p is alpha for one user and
the OR-rule local level 1 - (1 - alpha)^{1/N} for N cooperating users.

The cells are every fig1-fig3 curve that is not switching on the 5 dB grid
from -20 to 40 dB, three cells where the adaptive quadrature once returned
an exact 0, and the box M in {1, 2, 10, 100, 1000, 10^4}, alpha in
{0.01, 0.5, 0.9}, Q in {1, 10, 64}, SNR in {-40, -10, 0, 30, 70} dB.
``pmd`` is a decimal string with 17 significant digits, because some box
values lie far below the smallest double.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import mpmath as mp

DPS = 30
AGREEMENT = 1e-12
HERE = Path(__file__).resolve().parent
DEFAULT_OUT = HERE / "faded_miss_refs.json"

FIG_GRID_DB = list(range(-20, 41, 5))
#: (figure, label, M, Q, N, alpha) of each fig1-fig3 curve the fading rule serves.
FIG_CURVES = [
    ("fig1", "noncoop-nm4", 4, 1, 1, 0.01),
    ("fig1", "coop-nm4", 2, 1, 2, 0.01),
    ("fig1", "noncoop-nm25", 25, 1, 1, 0.01),
    ("fig1", "coop-nm25", 5, 1, 5, 0.01),
    ("fig1", "noncoop-nm100", 100, 1, 1, 0.01),
    ("fig1", "coop-nm100", 10, 1, 10, 0.01),
    ("fig2", "noncoop", 100, 1, 1, 0.05),
    ("fig2", "coop", 10, 1, 10, 0.05),
    ("fig2", "selection", 100, 10, 1, 0.05),
    ("fig3", "selection-m35", 35, 10, 1, 0.05),
    ("fig3", "selection-m33", 33, 10, 1, 0.05),
]
#: (M, alpha, SNR dB) of one user where the miss was once a silent 0.
ZERO_CELLS = [(10, 0.5, 30), (100, 0.49, 20), (100, 0.9, 70)]
BOX_M = [1, 2, 10, 100, 1000, 10_000]
BOX_ALPHA = [0.01, 0.5, 0.9]
BOX_Q = [1, 10, 64]
BOX_DB = [-40, -10, 0, 30, 70]


def threshold(m: int, p) -> float:
    """lam with Q(M, lam/2) = p, rounded to a double."""
    p = mp.mpf(p)
    x = mp.findroot(lambda x: mp.gammainc(m, x, mp.inf, regularized=True) - p,
                    mp.mpf(m))
    return float(2 * x)


def or_level(n_users: int, alpha: float):
    return 1 - (1 - mp.mpf(alpha)) ** (mp.mpf(1) / n_users)


def _log_form_a_float(u: float, m: int, half: float, gb: float, q: int) -> float:
    """log of the form-A integrand in doubles, only to place breakpoints."""
    x = math.expm1(u) if u < 700 else math.inf
    cdf = -math.expm1(-x / gb)
    if cdf <= 0.0:
        return -math.inf
    return (m * (math.log(half) - u) - half * math.exp(-u) - math.lgamma(m)
            + q * math.log(cdf))


def breakpoints(m: int, lam: float, gb: float, q: int) -> tuple[list, float]:
    """Panel edges over u, and the log of the form-A integrand's peak.

    The edges are the Gamma bulk, the fading knee, and every 10 nats of
    descent from the peak down to 100 nats below it, where the range ends.
    The range is finite because mpmath's tanh-sinh rule on [a, inf) reaches
    u ~ 1e30, where exp(-expm1(u)) costs precision in proportion to u."""
    half = lam / 2
    grid = [1e-16 * 10 ** (k / 200) for k in range(200 * 19)]
    logs = [_log_form_a_float(u, m, half, gb, q) for u in grid]
    top = max(range(len(grid)), key=logs.__getitem__)
    peak = logs[top]
    edges = {grid[top]}
    end = grid[-1]
    for side in (range(top, -1, -1), range(top, len(grid))):
        level = 0
        for i in side:
            drop = peak - logs[i]
            if drop >= 10 * (level + 1):
                level = int(drop // 10)
                edges.add(grid[i])
            if drop > 100:
                if i > top:
                    end = grid[i]
                break
    bulk = math.log(half / m)
    knee = math.log1p(gb)
    for centre, width in ((bulk, 1 / math.sqrt(m)), (knee, min(knee, 1.0))):
        for k in (-4, -2, -1, 0, 1, 2, 4):
            edges.add(centre + k * width)
    inner = sorted(e for e in edges if 0 < e < end)
    return [mp.mpf(0)] + [mp.mpf(e) for e in inner] + [mp.mpf(end)], peak


def form_a(m: int, lam: float, gb, q: int, edges, shift) -> mp.mpf:
    """e^{-shift} int_0^inf f_M(g) g F(e^u - 1) du at g = (lam/2) e^{-u}."""
    half = mp.mpf(lam) / 2
    log_half = mp.log(half)
    norm = mp.loggamma(m) + shift

    def integrand(u):
        if u == 0:
            return mp.mpf(0)
        cdf = -mp.expm1(-mp.expm1(u) / gb)
        return mp.exp(m * (log_half - u) - half * mp.exp(-u) - norm + q * mp.log(cdf))

    return _quad(integrand, edges)


def form_b(m: int, lam: float, gb, q: int, edges, shift) -> mp.mpf:
    """e^{-shift} int_0^inf P(M, (lam/2) e^{-u}) f_F(e^u - 1) e^u du."""
    half = mp.mpf(lam) / 2
    scale = mp.exp(-shift)

    def integrand(u):
        x = mp.expm1(u)
        e = mp.exp(-x / gb)
        density = q * (1 - e) ** (q - 1) * e / gb if q > 1 else e / gb
        return (mp.gammainc(m, 0, half * mp.exp(-u), regularized=True)
                * density * mp.exp(u) * scale)

    return _quad(integrand, edges)


def _quad(integrand, edges) -> mp.mpf:
    # mp.quad stops on an absolute error, so both integrands are scaled by
    # their peak to be of order one where they matter.
    value, err = mp.quad(integrand, edges, error=True)
    if not err <= mp.mpf(10) ** (-20) * abs(value):
        raise RuntimeError(f"mpmath quadrature error {err} against {value}")
    return value


def miss(m: int, lam: float, snr_db: float, q: int) -> mp.mpf:
    """The miss by both forms; raises unless they agree to AGREEMENT."""
    gb = mp.power(10, mp.mpf(snr_db) / 10)
    edges, shift = breakpoints(m, lam, float(gb), q)
    shift = mp.mpf(shift)
    a = form_a(m, lam, gb, q, edges, shift)
    b = form_b(m, lam, gb, q, edges, shift)
    if not abs(a - b) <= AGREEMENT * abs(a):
        raise RuntimeError(
            f"forms disagree at M={m}, lam={lam}, {snr_db} dB, Q={q}: {a} vs {b}")
    return a * mp.exp(shift)


def cell(kind: str, m: int, q: int, lam: float, snr_db: float, **extra) -> dict:
    value = miss(m, lam, snr_db, q)
    return dict(kind=kind, m=m, q=q, lam=lam, snr_db=snr_db,
                pmd=mp.nstr(value, 17, min_fixed=1, max_fixed=0), **extra)


def build(log=print) -> dict:
    mp.mp.dps = DPS
    cells = []
    for figure, label, m, q, n_users, alpha in FIG_CURVES:
        lam = threshold(m, or_level(n_users, alpha))
        for snr_db in FIG_GRID_DB:
            cells.append(cell("fig", m, q, lam, snr_db, figure=figure, label=label,
                              n_users=n_users, alpha=alpha))
        log(figure, label)
    for m, alpha, snr_db in ZERO_CELLS:
        cells.append(cell("zero", m, 1, threshold(m, alpha), snr_db, alpha=alpha))
    for m in BOX_M:
        for alpha in BOX_ALPHA:
            lam = threshold(m, alpha)
            for q in BOX_Q:
                for snr_db in BOX_DB:
                    cells.append(cell("box", m, q, lam, snr_db, alpha=alpha))
        log("box M =", m)
    return {
        "generator": "tests/reference/make_faded_miss_refs.py",
        "mpmath": mp.__version__,
        "dps": DPS,
        "agreement": AGREEMENT,
        "cells": cells,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args()
    args.out.write_text(json.dumps(build(), indent=1) + "\n")


if __name__ == "__main__":
    main()
