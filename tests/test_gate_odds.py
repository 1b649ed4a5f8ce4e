"""How often criterion 7 of the acceptance gate fails on a fresh draw.

Criterion 7 fits a diversity slope to an escalating Monte Carlo sweep at a
fixed seed.  Any change to the draws redraws it, so its chance of failing
by noise alone is worth knowing.  ``simulate_misses`` gives the counts an
escalating sweep would see, from the exact miss at each grid point and
without drawing a trial, under two models of the draws:

- independent: every point has its own stream, so its misses in each
  escalation range are an independent binomial;
- common: every point counts the same trials (one critical SNR per trial),
  so each range's trials fall into nested bins whose probabilities are the
  differences of the exact misses, and a point's misses are the trials in
  the bins above it.

Both ignore the redraw of a partial last block at a larger take.  The
printed probabilities are for the record; the test asserts only the
binomial algebra of the simulator on toy cases.
"""

import math

import numpy as np
import pytest
from scipy import stats

from specsense.cli import analytic_columns

from .test_exact_slopes import RUNS

#: Criterion 7's schedule: 1e5 trials, escalated tenfold to 100 misses.
TRIALS, MIN_EVENTS, MAX_TRIALS = 10 ** 5, 100, 10 ** 8
REPLICATES = 20_000


def ladder(trials: int, max_trials: int) -> list[int]:
    """The trial counts an escalating point can stop at."""
    steps = [trials]
    while steps[-1] < max_trials:
        steps.append(min(steps[-1] * 10, max_trials))
    return steps


def simulate_misses(pmds, trials, min_events, max_trials, *, common, replicates, rng):
    """(trials, misses) of each grid point, shape (replicates, points).

    ``pmds`` are the exact misses along an increasing SNR grid.  Each point
    escalates tenfold on its own misses until it has ``min_events`` of them
    or reaches ``max_trials``.
    """
    pmds = np.asarray(pmds, dtype=float)
    steps = ladder(trials, max_trials)
    fresh = np.diff([0] + steps)  # trials each escalation step adds
    per_step = np.empty((replicates, len(steps), len(pmds)), dtype=np.int64)
    for s, n in enumerate(fresh):
        if common:
            # Bin 0: present at every point; bin i: absent up to point i - 1.
            bins = -np.diff(np.concatenate(([1.0], pmds, [0.0])))
            counts = rng.multinomial(n, np.clip(bins, 0.0, None), size=replicates)
            per_step[:, s] = np.cumsum(counts[:, :0:-1], axis=1)[:, ::-1]
        else:
            per_step[:, s] = rng.binomial(n, pmds, size=(replicates, len(pmds)))
    cum = np.cumsum(per_step, axis=1)
    reached = cum >= min_events
    stop = np.where(reached.any(axis=1), reached.argmax(axis=1), len(steps) - 1)
    misses = np.take_along_axis(cum, stop[:, None, :], axis=1)[:, 0]
    return np.asarray(steps)[stop], misses


def pass_probability(pmds, grid_db, want, band, *, common, rng):
    """Share of simulated redraws whose fitted slope lies in want +- band.

    The fit is ``fit_diversity_slope``'s: points with fewer than 100 misses
    are left out, and fewer than 3 points left fails.
    """
    totals, misses = simulate_misses(pmds, TRIALS, MIN_EVENTS, MAX_TRIALS,
                                     common=common, replicates=REPLICATES, rng=rng)
    use = misses >= MIN_EVENTS
    x = np.broadcast_to(np.asarray(grid_db) / 10.0, use.shape)
    y = np.log10(np.where(use, misses, 1) / totals)
    w = use.astype(float)
    k = w.sum(axis=1)
    xm = (w * x).sum(axis=1) / np.maximum(k, 1)
    ym = (w * y).sum(axis=1) / np.maximum(k, 1)
    dx = x - xm[:, None]
    with np.errstate(invalid="ignore", divide="ignore"):
        slope = -(w * dx * (y - ym[:, None])).sum(axis=1) / (w * dx * dx).sum(axis=1)
    return float(np.mean((k >= 3) & (np.abs(slope - want) <= band)))


def test_print_criterion_7_failure_odds():
    rng = np.random.default_rng(7)
    lines, survive = [], {False: 1.0, True: 1.0}
    for name, config, grid, want, band, _ in RUNS:
        pmds = [analytic_columns(config, s)[1] for s in grid]
        fails = {}
        for common in (False, True):
            fails[common] = 1.0 - pass_probability(pmds, grid, want, band,
                                                   common=common, rng=rng)
            survive[common] *= 1.0 - fails[common]
        lines.append(f"{name}: P(fail) independent {fails[False]:.4f}, "
                     f"common {fails[True]:.4f}")
    lines.append(f"any of these: independent {1.0 - survive[False]:.4f}, "
                 f"common {1.0 - survive[True]:.4f} (switching has no exact miss)")
    print("criterion 7 failure odds, "
          f"{REPLICATES} simulated redraws each\n  " + "\n  ".join(lines))


class TestSimulatorAlgebra:
    """The simulator against plain binomial algebra on toy cases."""

    def test_ladder(self):
        assert ladder(10 ** 5, 10 ** 8) == [10 ** 5, 10 ** 6, 10 ** 7, 10 ** 8]
        assert ladder(1000, 5000) == [1000, 5000]

    @pytest.mark.parametrize("common", [False, True])
    def test_one_point_without_escalation_is_binomial(self, common):
        n, p, reps = 1000, 0.03, 20_000
        totals, misses = simulate_misses([p], n, 0, n, common=common, replicates=reps,
                                         rng=np.random.default_rng(1))
        assert np.all(totals == n)
        se = math.sqrt(n * p * (1 - p) / reps)
        assert abs(misses.mean() - n * p) <= 5 * se
        assert misses.var() == pytest.approx(n * p * (1 - p), rel=0.05)

    def test_common_points_are_nested_and_their_gap_is_binomial(self):
        n, p, reps = 1000, (0.2, 0.05), 20_000
        _, misses = simulate_misses(p, n, 0, n, common=True, replicates=reps,
                                    rng=np.random.default_rng(2))
        assert np.all(misses[:, 1] <= misses[:, 0])
        gap = misses[:, 0] - misses[:, 1]
        q = p[0] - p[1]
        assert abs(gap.mean() - n * q) <= 5 * math.sqrt(n * q * (1 - q) / reps)
        assert gap.var() == pytest.approx(n * q * (1 - q), rel=0.05)

    @pytest.mark.parametrize("common", [False, True])
    def test_escalation_share_is_the_binomial_cdf(self, common):
        n, p, floor, reps = 1000, 0.01, 10, 20_000
        totals, _ = simulate_misses([p], n, floor, 10 * n, common=common,
                                    replicates=reps, rng=np.random.default_rng(3))
        want = stats.binom.cdf(floor - 1, n, p)
        share = float(np.mean(totals == 10 * n))
        assert abs(share - want) <= 5 * math.sqrt(want * (1 - want) / reps)
