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

and under two stopping rules:

- own total: each point escalates on its own misses;
- stream total: the stream escalates while any point is short, so every
  point stops at the largest of the points' own stops (``sweep``'s rule).

Both models ignore the redraw of a partial last block at a larger take.
The printed probabilities are for the record; the test asserts only the
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


def simulate_misses(pmds, trials, min_events, max_trials, *, common, replicates, rng,
                    stream_total=False):
    """(trials, misses) of each grid point, shape (replicates, points).

    ``pmds`` are the exact misses along an increasing SNR grid.  Each point
    escalates tenfold on its own misses until it has ``min_events`` of them
    or reaches ``max_trials``; with ``stream_total`` every point of a
    replicate stops at the largest of those stops.
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
    if stream_total:
        stop = np.broadcast_to(stop.max(axis=1, keepdims=True), stop.shape)
    misses = np.take_along_axis(cum, stop[:, None, :], axis=1)[:, 0]
    return np.asarray(steps)[stop], misses


def pass_probability(pmds, grid_db, want, band, *, rng, **model):
    """Share of simulated redraws whose fitted slope lies in want +- band.

    ``model`` is ``simulate_misses``'s ``common`` and ``stream_total``.  The
    fit is ``fit_diversity_slope``'s: points with fewer than 100 misses are
    left out, and fewer than 3 points left fails.
    """
    totals, misses = simulate_misses(pmds, TRIALS, MIN_EVENTS, MAX_TRIALS,
                                     replicates=REPLICATES, rng=rng, **model)
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


#: The draws of ``sweep`` before and since each stream kept one trial total.
MODELS = {"common, own total": {"common": True},
          "common, stream total": {"common": True, "stream_total": True}}


def test_print_criterion_7_failure_odds():
    rng = np.random.default_rng(7)
    lines, survive = [], dict.fromkeys(MODELS, 1.0)
    for name, config, grid, want, band, _ in RUNS:
        pmds = [analytic_columns(config, s)[1] for s in grid]
        fails = {}
        for label, model in MODELS.items():
            fails[label] = 1.0 - pass_probability(pmds, grid, want, band, rng=rng, **model)
            survive[label] *= 1.0 - fails[label]
        lines.append(f"{name}: P(fail) " + "; ".join(
            f"{label} {fail:.4f}" for label, fail in fails.items()))
    lines.append("any of these: " + "; ".join(
        f"{label} {1.0 - s:.4f}" for label, s in survive.items())
        + " (switching has no exact miss)")
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
    def test_stream_total_is_the_largest_own_stop(self, common):
        pmds, n, floor, reps = (0.05, 0.01, 0.002), 1000, 20, 2000
        own, own_misses = simulate_misses(pmds, n, floor, 100 * n, common=common,
                                          replicates=reps, rng=np.random.default_rng(4))
        stream, misses = simulate_misses(pmds, n, floor, 100 * n, common=common,
                                         replicates=reps, rng=np.random.default_rng(4),
                                         stream_total=True)
        assert len(np.unique(own)) == 3  # the toy case reaches every step
        assert np.all(stream == own.max(axis=1, keepdims=True))
        assert np.all(misses >= own_misses)

    @pytest.mark.parametrize("common", [False, True])
    def test_escalation_share_is_the_binomial_cdf(self, common):
        n, p, floor, reps = 1000, 0.01, 10, 20_000
        totals, _ = simulate_misses([p], n, floor, 10 * n, common=common,
                                    replicates=reps, rng=np.random.default_rng(3))
        want = stats.binom.cdf(floor - 1, n, p)
        share = float(np.mean(totals == 10 * n))
        assert abs(share - want) <= 5 * math.sqrt(want * (1 - want) / reps)
