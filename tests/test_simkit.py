"""Monte Carlo engine tests: determinism, analytic cross-checks, degeneracies.

Every cross-check pits the sampler against a closed-form or quadrature value
it was not derived from, at fixed seeds and pinned trial counts.
"""

import contextlib
import math
import multiprocessing
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from specsense import simkit
from specsense.channel import AvgSnr, RandomStream, draw_snr
from specsense.detector import calibrate_lambda, pf_single
from specsense.fusion import global_pf, global_pmd
from specsense.simkit import (
    McEstimate,
    SchemeConfig,
    SweepCurve,
    SweepPoint,
    estimate_point,
    fit_diversity_slope,
    sweep,
)


def ci99(p, n):
    return 2.576 * math.sqrt(p * (1 - p) / n)


class TestSchemeConfig:
    def test_payload_type_enforced(self):
        from specsense.detector import DetectorParams
        with pytest.raises(ValueError):
            SchemeConfig("coop", DetectorParams(m=5, lam=2.0), AvgSnr(1.0))

    def test_with_snr(self):
        cfg = SchemeConfig.noncoop(10, 20.0, 1.0)
        assert cfg.with_snr(AvgSnr.from_db(10)).avg_snr.gamma_bar == pytest.approx(10.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, math.nan])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        with pytest.raises(ValueError):
            SchemeConfig.noncoop(10, 1.0, 1.0, alpha=alpha)
        with pytest.raises(ValueError):
            SchemeConfig.coop(3, 1, 8, 1.0, 1.0, alpha=alpha)


class TestRunTrial:
    """Single-window decisions, counted through estimate_point."""

    def test_h0_huge_threshold_never_fires(self):
        cfg = SchemeConfig.noncoop(10, 1e9, 1.0)
        assert estimate_point(cfg, "H0", 1000, seed=41).value == 0.0

    def test_h1_huge_snr_always_fires(self):
        lam = calibrate_lambda(10, 0.05)
        cfg = SchemeConfig.noncoop(10, lam, 1e6)
        est = estimate_point(cfg, "H1", 10 ** 4, seed=42)
        assert est.value >= 0.999

    def test_empirical_false_alarm_matches_level(self):
        lam = calibrate_lambda(10, 0.05)
        cfg = SchemeConfig.noncoop(10, lam, 1.0)
        est = estimate_point(cfg, "H0", 10 ** 6, seed=43)
        assert abs(est.value - 0.05) <= 3 / 2.576 * ci99(0.05, 10 ** 6)

    def test_rejects_unknown_hypothesis(self):
        cfg = SchemeConfig.noncoop(10, 20.0, 1.0)
        with pytest.raises(ValueError):
            estimate_point(cfg, "H2", 1000, seed=1)


class TestEstimatePoint:
    def test_matches_analytic_false_alarm(self):
        cfg = SchemeConfig.noncoop(10, 20.0, 1.0)
        est = estimate_point(cfg, "H0", 10 ** 6, seed=44)
        want = pf_single(10, 20.0)
        assert abs(est.value - want) <= ci99(want, 10 ** 6)

    def test_bit_identical_reruns(self):
        cfg = SchemeConfig.coop(4, 2, 8, 25.0, 3.0)
        a = estimate_point(cfg, "H1", 50_000, seed=45)
        b = estimate_point(cfg, "H1", 50_000, seed=45)
        assert a == b

    def test_coop_cross_check_at_10db(self):
        from specsense.fusion import calibrate_local_lambda_global
        lam = calibrate_local_lambda_global(10, 1, 10, 0.05)
        cfg = SchemeConfig.coop(10, 1, 10, lam, AvgSnr.from_db(10.0))
        est = estimate_point(cfg, "H1", 10 ** 6, seed=46)
        want = global_pmd(cfg.payload, cfg.avg_snr)
        got = 1.0 - est.value
        # deep-tail point: compare with a Poisson-ish 3 sigma band
        assert abs(got - want) <= 3 * math.sqrt(want / 10 ** 6)

    def test_ci_formula_pinned(self):
        est = McEstimate.from_counts(250, 1000)
        assert est.ci_halfwidth == pytest.approx(
            2.576 * math.sqrt(0.25 * 0.75 / 1000), rel=1e-12)
        assert est.events == 250

    def test_minimum_trials_enforced(self):
        cfg = SchemeConfig.noncoop(10, 20.0, 1.0)
        with pytest.raises(ValueError):
            estimate_point(cfg, "H0", 999, seed=1)

    # Without the bound, 10^15 trials would plan ~1.5e10 blocks before the
    # first draw; the stand-in plan fails the test at the first plan instead.
    @pytest.mark.parametrize("kwargs", [
        {"trials": 10 ** 15},
        {"trials": simkit._MAX_TRIALS + 1},
        {"trials": 1000, "min_events": 100, "max_trials": 10 ** 15},
        {"trials": 10 ** 5, "min_events": 10 ** 9, "max_trials": 1000},
    ], ids=["trials", "trials-just-above-the-cap", "max-trials", "max-trials-below-trials"])
    def test_budget_above_the_cap_rejected_before_planning(self, monkeypatch, kwargs):
        def refuse(total):
            raise AssertionError(f"planned {total} trials")

        monkeypatch.setattr(simkit, "_block_plan", refuse)
        cfg = SchemeConfig.noncoop(10, 1.0, AvgSnr.from_db(40.0), alpha=0.05)
        with pytest.raises(ValueError, match=r"trials must be"):
            estimate_point(cfg, "H1", seed=1, **kwargs)

    def test_event_floor_escalation(self):
        lam = calibrate_lambda(10, 0.05)
        cfg = SchemeConfig.noncoop(10, lam, AvgSnr.from_db(25.0))  # pmd ~ 2.5e-3
        est = estimate_point(cfg, "H1", 1000, seed=47, min_events=100,
                             max_trials=10 ** 6)
        misses = est.trials - est.events
        assert misses >= 100
        assert est.trials > 1000


class TestDegeneracies:
    def test_coop_single_user_equals_noncoop(self):
        lam = calibrate_lambda(10, 0.05)
        avg = AvgSnr.from_db(0.0)
        a = estimate_point(SchemeConfig.coop(1, 1, 10, lam, avg), "H1",
                           10 ** 5, seed=48)
        b = estimate_point(SchemeConfig.noncoop(10, lam, avg), "H1",
                           10 ** 5, seed=49)
        assert abs(a.value - b.value) <= a.ci_halfwidth + b.ci_halfwidth

    def test_switching_single_state_equals_noncoop(self):
        lam = calibrate_lambda(20, 0.05)
        avg = AvgSnr.from_db(0.0)
        a = estimate_point(SchemeConfig.switching(1, 20, lam, avg), "H1",
                           10 ** 5, seed=50)
        b = estimate_point(SchemeConfig.noncoop(20, lam, avg), "H1",
                           10 ** 5, seed=51)
        assert abs(a.value - b.value) <= a.ci_halfwidth + b.ci_halfwidth

    def test_selection_single_state_equals_noncoop(self):
        lam = calibrate_lambda(20, 0.05)
        avg = AvgSnr.from_db(0.0)
        a = estimate_point(SchemeConfig.selection(1, 20, lam, avg), "H1",
                           10 ** 5, seed=52)
        b = estimate_point(SchemeConfig.noncoop(20, lam, avg), "H1",
                           10 ** 5, seed=53)
        assert abs(a.value - b.value) <= a.ci_halfwidth + b.ci_halfwidth

    def test_h0_false_alarm_matches_analytic_all_schemes(self):
        alpha = 0.05
        lam10 = calibrate_lambda(10, alpha)
        lam100 = calibrate_lambda(100, alpha)
        from specsense.fusion import calibrate_local_lambda_global
        lam_mu = calibrate_local_lambda_global(10, 1, 10, alpha)
        configs = [
            SchemeConfig.noncoop(10, lam10, 1.0),
            SchemeConfig.coop(10, 1, 10, lam_mu, 1.0),
            SchemeConfig.switching(10, 100, lam100, 1.0),
            SchemeConfig.selection(10, 100, lam100, 1.0),
        ]
        for i, cfg in enumerate(configs):
            est = estimate_point(cfg, "H0", 10 ** 6, seed=54, stream_id=i)
            assert abs(est.value - alpha) <= ci99(alpha, 10 ** 6), cfg.variant


class TestSweep:
    def test_monotone_and_constant_false_alarm(self):
        cfg = SchemeConfig.noncoop(10, 1.0, 1.0, alpha=0.05)
        curve = sweep(cfg, [-5.0, 0.0, 5.0, 10.0], 20_000, seed=55)
        pmds = [p.pmd.value for p in curve.points]
        for a, b in zip(pmds, pmds[1:]):
            assert b <= a + 2 * 0.011  # CI noise allowance at 2e4 trials
        pfs = {p.pf.value for p in curve.points}
        assert len(pfs) == 1  # one shared H0 estimate

    def test_recalibrates_from_alpha(self):
        cfg = SchemeConfig.noncoop(10, 999.0, 1.0, alpha=0.05)
        curve = sweep(cfg, [0.0], 50_000, seed=56)
        assert abs(curve.points[0].pf.value - 0.05) <= ci99(0.05, 50_000)

    def test_takes_the_threshold_as_given(self, monkeypatch):
        from specsense.cli import build_config, figure_setups
        configs = [build_config(sc) for _, sc in figure_setups("fig2")]

        def refuse(*args, **kwargs):
            raise AssertionError("sweep recalibrated a built config")

        monkeypatch.setattr(simkit, "calibrate_lambda", refuse)
        monkeypatch.setattr(simkit, "calibrate_local_lambda_global", refuse)
        for config in configs:
            sweep(config, [0.0], 1000, seed=58)

    def test_deterministic(self):
        cfg = SchemeConfig.noncoop(10, 1.0, 1.0, alpha=0.05)
        a = sweep(cfg, [0.0, 5.0], 10_000, seed=57)
        b = sweep(cfg, [0.0, 5.0], 10_000, seed=57)
        assert a == b

    @pytest.mark.parametrize("grid", [[5.0, 0.0], [0.0, 0.0]], ids=["decreasing", "repeated"])
    def test_unordered_grid_rejected_before_any_draw(self, monkeypatch, grid):
        drawn = []
        batch = simkit._batch_decisions

        def spy(config, hypothesis, gen, n):
            drawn.append(n)
            return batch(config, hypothesis, gen, n)

        monkeypatch.setattr(simkit, "_batch_decisions", spy)
        cfg = SchemeConfig.noncoop(10, 1.0, 1.0, alpha=0.05)
        with pytest.raises(ValueError, match="strictly increasing"):
            sweep(cfg, grid, 200_000, seed=1)
        assert drawn == []

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SweepCurve(points=(
                SweepPoint(0.0, McEstimate(0.5, 1000, 0.01),
                           McEstimate(0.05, 1000, 0.01)),
                SweepPoint(0.0, McEstimate(0.4, 1000, 0.01),
                           McEstimate(0.05, 1000, 0.01)),
            ))


class TestSlopeFit:
    @staticmethod
    def synthetic_curve(d, coeff, grid_db, trials=10 ** 7):
        points = []
        for snr_db in grid_db:
            gb = 10.0 ** (snr_db / 10.0)
            pmd = min(1.0, coeff / gb ** d)
            est = McEstimate(value=pmd, trials=trials,
                             ci_halfwidth=ci99(pmd, trials))
            pf = McEstimate(value=0.05, trials=trials,
                            ci_halfwidth=ci99(0.05, trials))
            points.append(SweepPoint(snr_db=snr_db, pmd=est, pf=pf))
        return SweepCurve(points=tuple(points))

    def test_recovers_known_slope(self):
        # At 4 dB, outside the window, the miss is clamped to 1, off the line.
        curve = self.synthetic_curve(3.0, 500.0, [4, 10, 12, 14, 16, 18])
        assert fit_diversity_slope(curve, (10, 18)) == pytest.approx(3.0, abs=1e-9)

    def test_excludes_zero_cells_with_warning(self):
        base = self.synthetic_curve(2.0, 1.0, [10, 15, 20, 25])
        zero = SweepPoint(60.0, McEstimate(0.0, 10 ** 7, 0.0),
                          McEstimate(0.05, 10 ** 7, 0.001))
        curve = SweepCurve(points=base.points + (zero,))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            slope = fit_diversity_slope(curve, (10, 60))
        assert any("zero-count" in str(w.message) for w in caught)
        assert slope == pytest.approx(2.0, abs=1e-6)

    def test_event_floor_exclusion(self):
        curve = self.synthetic_curve(2.0, 1.0, [5, 10, 15, 40], trials=10 ** 5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit_diversity_slope(curve, (5, 40))
        assert any("events" in str(w.message) for w in caught)

    def test_insufficient_points(self):
        curve = self.synthetic_curve(1.0, 10.0, [0, 5])
        with pytest.raises(ValueError):
            fit_diversity_slope(curve, (0, 5))

    def test_noncoop_slope_from_simulation(self):
        cfg = SchemeConfig.noncoop(10, 1.0, 1.0, alpha=0.05)
        curve = sweep(cfg, [25.0, 30.0, 35.0, 40.0], 10 ** 5, seed=58,
                      min_events=100, max_trials=10 ** 7)
        slope = fit_diversity_slope(curve, (25, 40))
        assert slope == pytest.approx(1.0, abs=0.1)


#: Per-check level of the law tests below: 15 checks, so a correct sampler
#: fails one of them with probability under 2e-3.
LAW_LEVEL = 1e-4
LAW_TRIALS = 200_000


def _full_draw_switching(params, avg, gen, n):
    """The switching H1 decision with every state drawn for every trial."""
    gains = 1.0 + draw_snr(avg, gen, (n, len(params.alloc)))
    y = sum(gen.chisquare(2 * dwell, n) * gains[:, j]
            for j, dwell in enumerate(params.alloc))
    return y > params.lam


class TestDrawOnlyWhatDecides:
    """The short-circuit samplers keep the law of the full-draw decision."""

    @pytest.mark.parametrize("n_users, n_vote", [(10, 1), (5, 3), (4, 4)])
    def test_coop_false_alarm_is_the_global_level(self, n_users, n_vote):
        cfg = SchemeConfig.coop(n_users, n_vote, 8, 1.0, 1.0, alpha=0.05)
        est = estimate_point(cfg, "H0", LAW_TRIALS, seed=60, stream_id=n_users)
        want = global_pf(cfg.payload)
        assert stats.binomtest(est.events, LAW_TRIALS, want).pvalue > LAW_LEVEL

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0])
    @pytest.mark.parametrize("n_users, n_vote", [(10, 1), (5, 3), (4, 4)])
    def test_coop_detection_is_one_minus_the_global_miss(self, n_users, n_vote, snr_db):
        cfg = SchemeConfig.coop(n_users, n_vote, 8, 1.0, AvgSnr.from_db(snr_db),
                                alpha=0.05)
        est = estimate_point(cfg, "H1", LAW_TRIALS, seed=61,
                             stream_id=10 * n_users + int(snr_db) + 10)
        want = 1.0 - global_pmd(cfg.payload, cfg.avg_snr)
        assert stats.binomtest(est.events, LAW_TRIALS, want).pvalue > LAW_LEVEL

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0])
    def test_switching_unequal_dwells_matches_full_draws(self, snr_db):
        cfg = SchemeConfig.switching(3, 20, calibrate_lambda(20, 0.05),
                                     AvgSnr.from_db(snr_db))
        assert cfg.payload.alloc == (7, 7, 6)
        est = estimate_point(cfg, "H1", LAW_TRIALS, seed=62, stream_id=1)
        gen = RandomStream(seed=63).generator()
        ref = int(_full_draw_switching(cfg.payload, cfg.avg_snr, gen, LAW_TRIALS).sum())
        # Two-sample binomial z-test on the pooled rate.
        pooled = (est.events + ref) / (2 * LAW_TRIALS)
        se = math.sqrt(pooled * (1.0 - pooled) * 2.0 / LAW_TRIALS)
        z = stats.norm.isf(LAW_LEVEL / 2.0)
        assert abs(est.events - ref) / LAW_TRIALS <= z * se


class TestGridDrawsKeepTheLaw:
    """One set of draws counted at every point of a sweep keeps each point's law.

    Coop with n > 1 is the one case whose trials stop at the grid's last SNR
    (short of n votes there); the others stop at its first.
    """

    GRID_DB = [-10.0, -5.0, 0.0, 5.0, 10.0]

    @staticmethod
    def assert_never_rises(curve):
        pmds = [p.pmd.value for p in curve.points]
        assert all(b <= a for a, b in zip(pmds, pmds[1:])), pmds

    @pytest.mark.parametrize("n_users, n_vote", [(4, 2), (10, 1)])
    def test_coop_points_follow_the_exact_model(self, n_users, n_vote):
        cfg = SchemeConfig.coop(n_users, n_vote, 8, 1.0, 1.0, alpha=0.05)
        curve = sweep(cfg, self.GRID_DB, LAW_TRIALS, seed=65)
        for point in curve.points:
            want = global_pmd(cfg.payload, AvgSnr.from_db(point.snr_db))
            assert stats.binomtest(point.pmd.events, LAW_TRIALS, want).pvalue > LAW_LEVEL
        self.assert_never_rises(curve)

    def test_selection_points_follow_the_exact_model(self):
        cfg = SchemeConfig.selection(4, 20, calibrate_lambda(20, 0.05), 1.0)
        grid = [-10.0, -6.0, -2.0, 2.0, 6.0]
        curve = sweep(cfg, grid, LAW_TRIALS, seed=66)
        for point in curve.points:
            _, want = cfg.scheme.analytic(cfg.payload, AvgSnr.from_db(point.snr_db))
            assert stats.binomtest(point.pmd.events, LAW_TRIALS, want).pvalue > LAW_LEVEL
        self.assert_never_rises(curve)

    def test_switching_points_match_full_draws(self):
        cfg = SchemeConfig.switching(3, 20, calibrate_lambda(20, 0.05), 1.0)
        assert cfg.payload.alloc == (7, 7, 6)
        curve = sweep(cfg, self.GRID_DB, LAW_TRIALS, seed=67)
        z = stats.norm.isf(LAW_LEVEL / 2.0)
        for i, point in enumerate(curve.points):
            gen = RandomStream(seed=68, stream_id=i).generator()
            ref = int(_full_draw_switching(cfg.payload, AvgSnr.from_db(point.snr_db),
                                           gen, LAW_TRIALS).sum())
            hits = LAW_TRIALS - point.pmd.events
            # Two-sample binomial z-test on the pooled rate.
            pooled = (hits + ref) / (2 * LAW_TRIALS)
            se = math.sqrt(pooled * (1.0 - pooled) * 2.0 / LAW_TRIALS)
            assert abs(hits - ref) / LAW_TRIALS <= z * se
        self.assert_never_rises(curve)


def _filled(value, size, out):
    if out is None:
        return np.full(size, value)
    out.fill(value)
    return out


class ScriptedDraws:
    """A generator stand-in: call k returns scripted value k for every trial.

    The scripted energies are chi-square values, which the engine draws as
    twice a standard gamma.
    """

    def __init__(self, energies, fades):
        self.energies, self.fades = list(energies), list(fades)

    def standard_gamma(self, shape, size=None, out=None):
        return _filled(float(self.energies.pop(0)) / 2, size, out)

    def standard_exponential(self, size=None, out=None):
        return _filled(float(self.fades.pop(0)), size, out)

    def random(self, size=None, out=None):  # u = 0 is the best-of-Q fade 0
        assert self.fades.pop(0) == 0.0
        return _filled(0.0, size, out)


LAM = 12.0
GAMMAS = np.array([0.5, 1.0, 2.0])


def direct_rule(config, energies, fades):
    """Present (0 or 1) at each of GAMMAS from x (1 + gamma e) > lam, all draws used."""
    terms = [np.array(energies) * (1.0 + g * np.array(fades)) for g in GAMMAS]
    if config.variant == "coop":
        n_vote = config.payload.n_vote
        return np.array([int(np.count_nonzero(t > LAM) >= n_vote) for t in terms])
    return np.array([int(t.sum() > LAM) for t in terms])


class TestDegenerateDraws:
    """Zero fades and energies equal to the threshold decide as the direct rule does.

    There the critical SNR is +-inf or 0/0; the 0/0 trial must read absent.
    """

    CASES = [
        ("noncoop", SchemeConfig.noncoop(10, LAM, 1.0), [LAM], [0.0]),
        ("noncoop", SchemeConfig.noncoop(10, LAM, 1.0), [2 * LAM], [0.0]),
        ("noncoop", SchemeConfig.noncoop(10, LAM, 1.0), [LAM / 2], [0.0]),
        ("noncoop", SchemeConfig.noncoop(10, LAM, 1.0), [LAM], [1.0]),
        ("noncoop", SchemeConfig.noncoop(10, LAM, 1.0), [LAM / 2], [1.0]),
        # 0/0 at the first user must not hide the second user's vote.
        ("coop", SchemeConfig.coop(2, 1, 10, LAM, 1.0), [LAM, 2 * LAM], [0.0, 0.5]),
        ("coop", SchemeConfig.coop(2, 1, 10, LAM, 1.0), [LAM, LAM], [0.0, 0.0]),
        ("coop", SchemeConfig.coop(3, 2, 10, LAM, 1.0), [LAM, 2 * LAM, LAM], [0.0, 0.0, 1.0]),
        ("coop", SchemeConfig.coop(3, 2, 10, LAM, 1.0), [LAM, LAM / 2, LAM], [0.0, 0.0, 0.0]),
        ("switching", SchemeConfig.switching(2, 20, LAM, 1.0), [LAM / 2, LAM / 2], [0.0, 0.0]),
        ("switching", SchemeConfig.switching(2, 20, LAM, 1.0), [LAM, LAM / 2], [0.0, 0.0]),
        ("switching", SchemeConfig.switching(2, 20, LAM, 1.0), [LAM, 0.0], [0.0, 0.0]),
        ("selection", SchemeConfig.selection(4, 20, LAM, 1.0), [LAM], [0.0]),
        ("selection", SchemeConfig.selection(4, 20, LAM, 1.0), [2 * LAM], [0.0]),
        ("selection", SchemeConfig.selection(4, 20, LAM, 1.0), [LAM / 2], [0.0]),
        # A critical SNR exactly at the grid's first SNR, (12 - 8) / 8 = 0.5,
        # or at its last, (12 - 4) / 4 = 2.0, both exact in binary.  A trial
        # reads present only above it: from the second point on, or nowhere.
        ("noncoop", SchemeConfig.noncoop(10, LAM, 1.0), [8.0], [1.0]),
        ("noncoop", SchemeConfig.noncoop(10, LAM, 1.0), [4.0], [1.0]),
        ("coop", SchemeConfig.coop(2, 1, 10, LAM, 1.0), [8.0, 4.0], [1.0, 1.0]),
        ("coop", SchemeConfig.coop(2, 2, 10, LAM, 1.0), [8.0, 4.0], [1.0, 1.0]),
        ("switching", SchemeConfig.switching(2, 20, LAM, 1.0), [4.0, 4.0], [1.0, 1.0]),
        ("switching", SchemeConfig.switching(2, 20, LAM, 1.0), [2.0, 2.0], [1.0, 1.0]),
    ]

    @pytest.mark.parametrize("name, config, energies, fades", CASES,
                             ids=[f"{c[0]}-{i}" for i, c in enumerate(CASES)])
    def test_decides_as_the_direct_rule(self, name, config, energies, fades):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                got = simkit._batch_decisions(config, GAMMAS,
                                              ScriptedDraws(energies, fades), 1)
        assert list(got) == list(direct_rule(config, energies, fades))


def _fades_per_trial(monkeypatch, config, hypothesis):
    """Fades drawn per trial by one full block of ``config``."""
    drawn = []

    def spy(avg, gen, size, **kwargs):
        out = draw_snr(avg, gen, size, **kwargs)
        drawn.append(out.size)
        return out

    monkeypatch.setattr(simkit, "draw_snr", spy)
    estimate_point(config, hypothesis, simkit._BLOCK, seed=64)
    return sum(drawn) / simkit._BLOCK, len(drawn)


class TestDrawCounts:
    """At 20 dB the first user or state decides almost every trial."""

    # Each trial draws the first user's or state's fade through draw_snr, so
    # at least one per trial: a path that went around draw_snr would pass
    # the upper bound with no fade counted.
    def test_coop_stops_at_the_deciding_user(self, monkeypatch):
        cfg = SchemeConfig.coop(10, 1, 10, 1.0, AvgSnr.from_db(20.0), alpha=0.05)
        per_trial, _ = _fades_per_trial(monkeypatch, cfg, "H1")
        assert 1.0 <= per_trial < 2.0

    def test_switching_stops_at_the_deciding_state(self, monkeypatch):
        cfg = SchemeConfig.switching(10, 100, calibrate_lambda(100, 0.05),
                                     AvgSnr.from_db(20.0))
        per_trial, _ = _fades_per_trial(monkeypatch, cfg, "H1")
        assert 1.0 <= per_trial < 2.0

    def test_selection_draws_no_per_state_fades(self, monkeypatch):
        cfg = SchemeConfig.selection(10, 100, calibrate_lambda(100, 0.05),
                                     AvgSnr.from_db(20.0))
        _, calls = _fades_per_trial(monkeypatch, cfg, "H1")
        assert calls == 0


# Exact hit counts at 200 000 = 3 * 65536 + 3392 trials (three complete blocks
# and a partial one), seed 2024, stream 3, 5 dB.  Any change to the draws, their
# order or their arithmetic moves these integers, and so may a numpy release:
# numpy does not promise Generator streams across versions.
GOLDEN_TRIALS = 200_000
GOLDEN_HITS = {
    ("noncoop", "H0"): 14010, ("noncoop", "H1"): 164392,
    ("coop", "H0"): 8521, ("coop", "H1"): 195312,
    ("switching", "H0"): 11522, ("switching", "H1"): 197581,
    ("selection", "H0"): 11522, ("selection", "H1"): 199717,
    # Q = 1 switching is noncoop: one antenna state for the whole window.
    ("switching-q1", "H0"): 14010, ("switching-q1", "H1"): 164392,
    # Coop H0 with many votes, where a trial stays open over many users.
    ("coop-57-of-57", "H0"): 9933, ("coop-32-of-64", "H0"): 9935,
}
GOLDEN_NOTE = ("golden counts were drawn with numpy 2.4.6, this run has "
               f"numpy {np.__version__}; after a numpy upgrade, suspect numpy first")
# Switching H1 has no exact miss yet (its analytic column is an asymptote).
EXACT_MODEL_GOLDENS = sorted(set(GOLDEN_HITS) - {("switching", "H1"), ("switching-q1", "H1")})


GOLDEN_CONFIGS = {
    "noncoop": SchemeConfig.noncoop(10, 30.0, AvgSnr.from_db(5.0)),
    "coop": SchemeConfig.coop(4, 2, 8, 24.0, AvgSnr.from_db(5.0)),
    "switching": SchemeConfig.switching(4, 20, 55.0, AvgSnr.from_db(5.0)),
    "selection": SchemeConfig.selection(4, 20, 55.0, AvgSnr.from_db(5.0)),
    "switching-q1": SchemeConfig.switching(1, 10, 30.0, AvgSnr.from_db(5.0)),
    "switching-q3": SchemeConfig.switching(3, 20, 55.0, AvgSnr.from_db(5.0)),  # dwells 7, 7, 6
    "switching-q5-m3": SchemeConfig.switching(5, 3, 20.0, AvgSnr.from_db(5.0)),  # dwells 1, 1, 1
    # Their thresholds are the alpha = 0.05 ones.
    "coop-57-of-57": SchemeConfig.coop(57, 57, 1737, 3338.9753206468718, AvgSnr.from_db(5.0)),
    "coop-32-of-64": SchemeConfig.coop(64, 32, 10, 21.10255012448796, AvgSnr.from_db(5.0)),
}


# Exact per-point miss counts, and the shared false-alarm count, of
# fixed-budget sweeps (GOLDEN_TRIALS, seed 2024).  A one-SNR golden has no
# trial between the grid's ends; these pin the window of critical SNRs that a
# block sorts, and the compaction of the trials still undecided over a grid,
# with equal and unequal dwells, one-sample dwells (M < Q) and one dwell.
GOLDEN_SWEEP_GRID_DB = [0.0, 2.5, 5.0, 7.5, 10.0]
GOLDEN_SWEEP_MISSES = {
    "coop": ([42515, 15789, 4664, 1070, 205], 8540),
    "switching": ([34841, 10929, 2444, 405, 62], 11528),
    "switching-q3": ([39771, 14906, 4264, 1044, 200], 11528),
    "switching-q5-m3": ([172233, 143637, 104828, 65196, 34651], 542),
    "selection": ([8298, 1806, 303, 40, 5], 11528),
}


# noncoop M = 10 at 35 dB escalates 1000 -> 1e4 -> 1e5 -> 1e6 trials.
DEEP = SchemeConfig.noncoop(10, 31.410432844230918, AvgSnr.from_db(35.0))


def escalated_deep_point():
    return estimate_point(DEEP, "H1", 1000, seed=7, min_events=100,
                          max_trials=10 ** 7)


# A fixed-budget sweep whose coop n = 2 trials use both grid ends, and an
# escalating one (its 35 dB point reaches 1e6 trials).
SWEEPS = [
    ((GOLDEN_CONFIGS["coop"], [0.0, 2.5, 5.0, 7.5, 10.0], GOLDEN_TRIALS, 2024), {}),
    ((DEEP, [25.0, 30.0, 32.5, 35.0], 1000, 7), {"min_events": 100, "max_trials": 10 ** 7}),
]


def _estimate_in_child(queue):
    queue.put(escalated_deep_point())


class TestGoldenCounts:
    @pytest.mark.parametrize("scheme, hypothesis", sorted(GOLDEN_HITS))
    def test_exact_hits(self, scheme, hypothesis):
        est = estimate_point(GOLDEN_CONFIGS[scheme], hypothesis, GOLDEN_TRIALS,
                             seed=2024, stream_id=3)
        assert est.trials == GOLDEN_TRIALS
        assert est.events == GOLDEN_HITS[scheme, hypothesis], GOLDEN_NOTE
        assert est.value == GOLDEN_HITS[scheme, hypothesis] / GOLDEN_TRIALS

    # The goldens are checked against the model, not only copied from the
    # program: each count passes the exact two-sided binomial test.
    @pytest.mark.parametrize("scheme, hypothesis", EXACT_MODEL_GOLDENS)
    def test_counts_agree_with_the_exact_model(self, scheme, hypothesis):
        config = GOLDEN_CONFIGS[scheme]
        pf, pmd = config.scheme.analytic(config.payload, config.avg_snr)
        p = pf if hypothesis == "H0" else 1.0 - pmd
        hits = GOLDEN_HITS[scheme, hypothesis]
        assert stats.binomtest(hits, GOLDEN_TRIALS, p).pvalue > 1e-6

    @pytest.mark.parametrize("scheme", sorted(GOLDEN_SWEEP_MISSES))
    def test_exact_sweep_misses(self, scheme):
        curve = sweep(GOLDEN_CONFIGS[scheme], GOLDEN_SWEEP_GRID_DB, GOLDEN_TRIALS, seed=2024)
        misses, false_alarms = GOLDEN_SWEEP_MISSES[scheme]
        assert [p.pmd.trials for p in curve.points] == [GOLDEN_TRIALS] * len(misses)
        assert [p.pmd.events for p in curve.points] == misses, GOLDEN_NOTE
        assert curve.points[0].pf.events == false_alarms, GOLDEN_NOTE

    def test_escalated_point(self):
        est = escalated_deep_point()
        assert est.trials == 10 ** 6, GOLDEN_NOTE
        assert est.trials - est.events == 205, GOLDEN_NOTE

    def test_escalation_equals_fixed_budget(self):
        est = escalated_deep_point()
        assert est == estimate_point(DEEP, "H1", est.trials, seed=7)
        # An escalating sweep's H1 stream stops as one unit: every point at
        # the 35 dB point's 1e6 trials, with the bits of that budget asked for
        # at once.  (The H0 check does not escalate.)
        args, kwargs = SWEEPS[1]
        curve = sweep(*args, **kwargs)
        assert [p.pmd.trials for p in curve.points] == [10 ** 6] * len(curve.points)
        config, grid, _, seed = args
        fixed = sweep(config, grid, 10 ** 6, seed)
        assert [p.pmd for p in curve.points] == [p.pmd for p in fixed.points]
        pmds = [p.pmd.value for p in curve.points]
        assert pmds == sorted(pmds, reverse=True)


class TestSweepCurves:
    """Many curves in one call: each keeps the bits of a sweep of its own."""

    # All four schemes, two one-point grids, and 100 000 trials: one full
    # block and a partial last block per stream.
    FIXED = [
        (GOLDEN_CONFIGS["noncoop"], [5.0], 11),
        (GOLDEN_CONFIGS["coop"], GOLDEN_SWEEP_GRID_DB, 12),
        (GOLDEN_CONFIGS["switching-q3"], [-5.0, 0.0, 5.0], 13),
        (GOLDEN_CONFIGS["selection"], [3.0], 14),
    ]
    # With min_events = 100 from 1000 trials, the noncoop curve stops at
    # 1e5 trials and the switching one at 1e6.
    ESCALATING = [
        (GOLDEN_CONFIGS["noncoop"], [15.0, 20.0], 7),
        (GOLDEN_CONFIGS["switching"], [7.5, 10.0], 7),
    ]

    def test_fixed_budget_curves_equal_separate_sweeps(self):
        trials = 100_000
        assert trials % simkit._BLOCK
        together = simkit.sweep_curves(self.FIXED, trials)
        assert together == [sweep(config, grid, trials, seed)
                            for config, grid, seed in self.FIXED]
        assert [len(c.points) for c in together] == [1, 5, 3, 1]

    def test_escalating_curves_stop_at_their_own_totals(self):
        kwargs = {"min_events": 100, "max_trials": 10 ** 7}
        together = simkit.sweep_curves(self.ESCALATING, 1000, **kwargs)
        assert together == [sweep(config, grid, 1000, seed, **kwargs)
                            for config, grid, seed in self.ESCALATING]
        assert [{p.pmd.trials for p in c.points} for c in together] == [{10 ** 5}, {10 ** 6}]

    @pytest.mark.parametrize("bad, match", [
        ([], "nonempty"), ([5.0, 0.0], "strictly increasing"),
    ], ids=["empty", "decreasing"])
    def test_every_grid_is_checked_before_any_block_is_planned(self, monkeypatch, bad, match):
        def refuse(total):
            raise AssertionError("a block was planned")

        monkeypatch.setattr(simkit, "_block_plan", refuse)
        curves = self.FIXED[:1] + [(GOLDEN_CONFIGS["coop"], bad, 12)]
        with pytest.raises(ValueError, match=match):
            simkit.sweep_curves(curves, 1000)

    def test_a_figure_maps_its_blocks_once_per_round(self, monkeypatch, tmp_path, capsys):
        from specsense.cli import main
        maps = []
        pool_map = simkit._map

        def spy(fn, items):
            maps.append(len(items))
            return pool_map(fn, items)

        monkeypatch.setattr(simkit, "_map", spy)
        assert main(["figure", "--which", "fig2", "--mode", "mc", "--trials", "100000",
                     "--out", str(tmp_path / "fig2.csv")]) == 0
        # Four curves, two streams each, of one full and one partial block.
        assert maps == [4 * 2 * 2]


class TestBlockWorkspace:
    """Blocks draw into their thread's reused arrays and keep every bit."""

    # The engine draws each window's energy as a Gamma(k) value and tests it
    # against lam / 2; its decisions must be those of numpy's chi-square(2k)
    # draws against lam, bit for bit, ties included.
    @pytest.mark.parametrize("k", [1, 4, 5, 8, 10, 20, 1737])
    def test_gamma_energies_decide_as_chisquare(self, k):
        n = 4096
        stream = RandomStream(seed=9, stream_id=k)
        gen = stream.generator()
        x = gen.chisquare(2 * k, n)
        e = gen.standard_exponential(n)
        for lam in (float(np.median(x)), float(x[0])):
            config = SchemeConfig.noncoop(k, lam, 1.0)
            [h0] = simkit._batch_decisions(config, None, stream.generator(), n)
            assert h0 == np.count_nonzero(x > lam), GOLDEN_NOTE
            ws = (np.empty(2 * n), np.empty(2 * n))
            settled, c = config.scheme.critical_snrs(config.payload, 0.5, 2.0,
                                                     stream.generator(), n, ws)
            with np.errstate(divide="ignore", invalid="ignore"):
                want = np.fmin((lam - x) / (x * e), np.inf)
            assert settled == 0
            assert c.tobytes() == want.tobytes(), GOLDEN_NOTE
        assert np.count_nonzero(x >= lam) == h0 + 1  # the tie at x[0] reads absent

    GAMMAS = np.array([AvgSnr.from_db(s).gamma_bar for s in GOLDEN_SWEEP_GRID_DB])
    CONFIGS = [GOLDEN_CONFIGS[name] for name in ("noncoop", "coop", "switching", "selection")] + [
        # Three votes: a full H1 block needs more than the thread's pair.
        SchemeConfig.coop(5, 3, 8, 1.0, 1.0, alpha=0.05),
    ]

    @staticmethod
    def block(job):
        i, config, gammas, n = job
        gen = RandomStream(seed=11, stream_id=i).generator()
        return simkit._batch_decisions(config, gammas, gen, n)

    def jobs(self):
        sizes = [simkit._BLOCK, 3392, simkit._BLOCK, 1000]
        return [(i, config, gammas, n) for i, n in enumerate(sizes)
                for config in self.CONFIGS for gammas in (None, self.GAMMAS)]

    # A block that left stale values in the arrays (running sums not zeroed,
    # votes carried over) would count differently after another block.
    def test_blocks_back_to_back_count_as_on_a_fresh_thread(self):
        jobs = self.jobs()
        with ThreadPoolExecutor(max_workers=1) as one:
            reused = list(one.map(self.block, jobs))
        fresh = []
        for job in jobs:
            with ThreadPoolExecutor(max_workers=1) as new:
                fresh.append(new.submit(self.block, job).result())
        assert [list(c) for c in reused] == [list(c) for c in fresh]

    def test_counts_share_no_memory_with_the_workspace(self):
        for job in self.jobs():
            counts = self.block(job)
            pair = simkit._workspace(2 * simkit._BLOCK)  # this thread's
            assert not any(np.shares_memory(counts, w) for w in pair), job[:1]


@contextlib.contextmanager
def block_pool(monkeypatch, workers: int):
    """Inside the ``with`` body, simkit maps its blocks on ``workers`` threads."""
    pool = ThreadPoolExecutor(max_workers=workers, thread_name_prefix="specsense-mc")
    monkeypatch.setattr(simkit, "_pool", pool)
    try:
        yield
    finally:
        pool.shutdown(wait=True)


class TestBlockScheduling:
    def test_same_bits_at_any_worker_count(self, monkeypatch):
        cfg = GOLDEN_CONFIGS["coop"]
        pooled = estimate_point(cfg, "H1", GOLDEN_TRIALS, seed=2024, stream_id=3)
        deep_pooled = escalated_deep_point()
        curves = [sweep(*args, **kwargs) for args, kwargs in SWEEPS]
        assert curves[1].points[-1].pmd.trials == 10 ** 6
        for workers in (simkit._worker_count(), 2, 1):
            with block_pool(monkeypatch, workers):
                assert estimate_point(cfg, "H1", GOLDEN_TRIALS, seed=2024,
                                      stream_id=3) == pooled
                assert escalated_deep_point() == deep_pooled
                assert [sweep(*args, **kwargs) for args, kwargs in SWEEPS] == curves

    def test_sweep_on_more_workers_than_cores_under_fast_switching(self, monkeypatch):
        # Four pool threads take the blocks of both streams; a thread switch
        # every microsecond would expose counts stored against the wrong block.
        args, kwargs = SWEEPS[0]
        with block_pool(monkeypatch, 1):
            want = sweep(*args, **kwargs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with block_pool(monkeypatch, 4):
                got = sweep(*args, **kwargs)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("args, kwargs", [
        ((GOLDEN_CONFIGS["coop"], [5.0], GOLDEN_TRIALS, 2024), {}),
        ((DEEP, [35.0], 1000, 7), {"min_events": 100, "max_trials": 10 ** 7}),
    ], ids=["fixed", "escalating"])
    def test_one_point_sweep_is_estimate_point_on_stream_one(self, args, kwargs):
        config, [snr_db], trials, seed = args
        [point] = sweep(*args, **kwargs).points
        det = estimate_point(config.with_snr(AvgSnr.from_db(snr_db)), "H1", trials,
                             seed, stream_id=1, **kwargs)
        assert point.pmd == replace(det, value=1.0 - det.value)
        assert point.pf == estimate_point(config, "H0", trials, seed, stream_id=0)

    @pytest.mark.parametrize("args, kwargs", SWEEPS, ids=["fixed", "escalating"])
    def test_point_depends_on_the_grid_ends_alone(self, args, kwargs):
        config, grid, trials, seed = args
        curve = sweep(*args, **kwargs)
        for i in range(1, len(grid) - 1):
            ends = sweep(config, [grid[0], grid[i], grid[-1]], trials, seed, **kwargs)
            assert ends.points[1] == curve.points[i]

    def test_fixed_budget_sweep_draws_each_block_once(self, monkeypatch):
        drawn = {"H0": [], "H1": []}
        batch = simkit._batch_decisions

        def spy(config, gammas, gen, n):
            drawn["H0" if gammas is None else "H1"].append(n)
            return batch(config, gammas, gen, n)

        monkeypatch.setattr(simkit, "_batch_decisions", spy)
        grid = [-20.0 + i for i in range(41)]
        curve = sweep(GOLDEN_CONFIGS["switching"], grid, GOLDEN_TRIALS, seed=3)
        plan = sorted(take for _, take in simkit._block_plan(GOLDEN_TRIALS))
        assert sorted(drawn["H1"]) == sorted(drawn["H0"]) == plan
        assert [p.pmd.trials for p in curve.points] == [GOLDEN_TRIALS] * 41

    def test_sweep_raises_the_first_failing_block(self, monkeypatch):
        def others():
            return {t for t in threading.enumerate()
                    if not t.name.startswith("specsense-mc")}

        before = others()
        batch = simkit._batch_decisions

        def spy(config, gammas, gen, n):
            # The partial last block of each stream fails; H0's comes first.
            if n < simkit._BLOCK:
                raise FloatingPointError("forced at " + ("H0" if gammas is None else "H1"))
            return batch(config, gammas, gen, n)

        monkeypatch.setattr(simkit, "_batch_decisions", spy)
        with block_pool(monkeypatch, 2), pytest.raises(FloatingPointError, match="H0"):
            sweep(GOLDEN_CONFIGS["noncoop"], [0.1 * i for i in range(50)],
                  GOLDEN_TRIALS, seed=3)
        assert others() == before

    def test_each_block_drawn_once_per_point(self, monkeypatch):
        drawn = []
        batch = simkit._batch_decisions

        def spy(config, hypothesis, gen, n):
            drawn.append(n)
            return batch(config, hypothesis, gen, n)

        monkeypatch.setattr(simkit, "_batch_decisions", spy)
        escalated_deep_point()
        # 1000, 10 000, then 65536 + 34464, then block 0 reused: 14 new
        # complete blocks and a partial block of 16960.
        assert sorted(drawn) == sorted(
            [1000, 10_000, 34_464, 16_960] + [65_536] * 15)

    def test_concurrent_callers_get_their_own_counts(self):
        cfg = GOLDEN_CONFIGS["coop"]
        want = estimate_point(cfg, "H1", GOLDEN_TRIALS, seed=2024, stream_id=3)
        results = [None] * 6
        errors = []

        def call(i):
            try:
                results[i] = estimate_point(cfg, "H1", GOLDEN_TRIALS, seed=2024,
                                            stream_id=3)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(i,))
                       for i in range(len(results))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert errors == []
        assert results == [want] * len(results)

    def test_worker_exception_propagates(self, monkeypatch):
        def fail(config, hypothesis, gen, n):
            raise FloatingPointError("forced")

        monkeypatch.setattr(simkit, "_batch_decisions", fail)
        with pytest.raises(FloatingPointError, match="forced"):
            estimate_point(GOLDEN_CONFIGS["noncoop"], "H1", GOLDEN_TRIALS, seed=1)

    def test_completes_in_forked_child(self):
        want = escalated_deep_point()  # the parent's pool exists from here on
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_estimate_in_child, args=(queue,))
        child.start()
        try:
            got = queue.get(timeout=60)
        finally:
            child.join(timeout=10)
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0
        assert got == want
