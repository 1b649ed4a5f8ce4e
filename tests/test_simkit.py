"""Monte Carlo engine tests: determinism, analytic cross-checks, degeneracies.

Every cross-check pits the sampler against a closed-form or quadrature value
it was not derived from, at fixed seeds and pinned trial counts.
"""

import math
import multiprocessing
import sys
import threading
import warnings

import pytest

from specsense import simkit
from specsense.channel import AvgSnr, RandomStream
from specsense.detector import calibrate_lambda, pf_single
from specsense.fusion import global_pmd
from specsense.simkit import (
    McEstimate,
    SchemeConfig,
    SweepCurve,
    SweepPoint,
    estimate_point,
    fit_diversity_slope,
    run_trial,
    sweep,
)


def ci99(p, n):
    return 2.576 * math.sqrt(p * (1 - p) / n)


class TestSchemeConfig:
    def test_payload_type_enforced(self):
        from specsense.detector import DetectorParams
        with pytest.raises(ValueError):
            SchemeConfig("coop", DetectorParams(m=5, lam=2.0), AvgSnr(1.0))

    def test_csi_mode_consistency(self):
        from specsense.reconfig import ReconfigParams
        params = ReconfigParams.make(4, 20, 30.0, "selection")
        with pytest.raises(ValueError):
            SchemeConfig("reconfig-switching", params, AvgSnr(1.0))

    def test_total_samples(self):
        assert SchemeConfig.coop(10, 1, 10, 30.0, 1.0).total_samples == 100
        assert SchemeConfig.switching(10, 100, 200.0, 1.0).total_samples == 100

    def test_with_snr(self):
        cfg = SchemeConfig.noncoop(10, 20.0, 1.0)
        assert cfg.with_snr(AvgSnr.from_db(10)).avg_snr.gamma_bar == pytest.approx(10.0)


class TestRunTrial:
    def test_h0_huge_threshold_never_fires(self):
        cfg = SchemeConfig.noncoop(10, 1e9, 1.0)
        stream = RandomStream(seed=41)
        assert not any(run_trial(cfg, "H0", stream.substream(i)) for i in range(200))

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
            run_trial(cfg, "H2", RandomStream(seed=1))


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
        est = McEstimate.from_counts(250, 1000, seed=0)
        assert est.ci_halfwidth == pytest.approx(
            2.576 * math.sqrt(0.25 * 0.75 / 1000), rel=1e-12)
        assert est.events == 250

    def test_minimum_trials_enforced(self):
        cfg = SchemeConfig.noncoop(10, 20.0, 1.0)
        with pytest.raises(ValueError):
            estimate_point(cfg, "H0", 999, seed=1)

    def test_event_floor_escalation(self):
        lam = calibrate_lambda(10, 0.05)
        cfg = SchemeConfig.noncoop(10, lam, AvgSnr.from_db(25.0))  # pmd ~ 2.5e-3
        est = estimate_point(cfg, "H1", 1000, seed=47, min_events=100,
                             floor_side="absent", max_trials=10 ** 6)
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
        pmds = curve.pmd_values()
        for a, b in zip(pmds, pmds[1:]):
            assert b <= a + 2 * 0.011  # CI noise allowance at 2e4 trials
        pfs = {p.pf.value for p in curve.points}
        assert len(pfs) == 1  # one shared H0 estimate

    def test_recalibrates_from_alpha(self):
        cfg = SchemeConfig.noncoop(10, 999.0, 1.0, alpha=0.05)
        curve = sweep(cfg, [0.0], 50_000, seed=56)
        assert abs(curve.points[0].pf.value - 0.05) <= ci99(0.05, 50_000)

    def test_deterministic(self):
        cfg = SchemeConfig.noncoop(10, 1.0, 1.0, alpha=0.05)
        a = sweep(cfg, [0.0, 5.0], 10_000, seed=57)
        b = sweep(cfg, [0.0, 5.0], 10_000, seed=57)
        assert a == b

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            SweepCurve(points=(
                SweepPoint(0.0, McEstimate(0.5, 1000, 0.01, 1),
                           McEstimate(0.05, 1000, 0.01, 1)),
                SweepPoint(0.0, McEstimate(0.4, 1000, 0.01, 1),
                           McEstimate(0.05, 1000, 0.01, 1)),
            ))


class TestSlopeFit:
    @staticmethod
    def synthetic_curve(d, coeff, grid_db, trials=10 ** 7):
        points = []
        for snr_db in grid_db:
            gb = 10.0 ** (snr_db / 10.0)
            pmd = min(1.0, coeff / gb ** d)
            est = McEstimate(value=pmd, trials=trials,
                             ci_halfwidth=ci99(pmd, trials), seed=0)
            pf = McEstimate(value=0.05, trials=trials,
                            ci_halfwidth=ci99(0.05, trials), seed=0)
            points.append(SweepPoint(snr_db=snr_db, pmd=est, pf=pf))
        return SweepCurve(points=tuple(points))

    def test_recovers_known_slope(self):
        curve = self.synthetic_curve(3.0, 500.0, [10, 12, 14, 16, 18])
        assert fit_diversity_slope(curve, (10, 18)) == pytest.approx(3.0, abs=1e-9)

    def test_excludes_zero_cells_with_warning(self):
        base = self.synthetic_curve(2.0, 1.0, [10, 15, 20, 25])
        zero = SweepPoint(60.0, McEstimate(0.0, 10 ** 7, 0.0, 0),
                          McEstimate(0.05, 10 ** 7, 0.001, 0))
        curve = SweepCurve(points=base.points + (zero,))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            slope = fit_diversity_slope(curve, (10, 60), min_events=0)
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


# Exact hit counts at 200 000 = 3 * 65536 + 3392 trials (three complete blocks
# and a partial one), seed 2024, stream 3, 5 dB.  Any change to the draws, their
# order or their arithmetic moves these integers.
GOLDEN_TRIALS = 200_000
GOLDEN_HITS = {
    ("noncoop", "H0"): 14033, ("noncoop", "H1"): 163924,
    ("coop", "H0"): 8502, ("coop", "H1"): 195308,
    ("switching", "H0"): 11547, ("switching", "H1"): 197586,
    ("selection", "H0"): 11547, ("selection", "H1"): 199696,
}


GOLDEN_CONFIGS = {
    "noncoop": SchemeConfig.noncoop(10, 30.0, AvgSnr.from_db(5.0)),
    "coop": SchemeConfig.coop(4, 2, 8, 24.0, AvgSnr.from_db(5.0)),
    "switching": SchemeConfig.switching(4, 20, 55.0, AvgSnr.from_db(5.0)),
    "selection": SchemeConfig.selection(4, 20, 55.0, AvgSnr.from_db(5.0)),
}


# noncoop M = 10 at 35 dB escalates 1000 -> 1e4 -> 1e5 -> 1e6 trials.
DEEP = SchemeConfig.noncoop(10, 31.410432844230918, AvgSnr.from_db(35.0))


def escalated_deep_point():
    return estimate_point(DEEP, "H1", 1000, seed=7, min_events=100,
                          max_trials=10 ** 7)


def _estimate_in_child(queue):
    queue.put(escalated_deep_point())


class TestGoldenCounts:
    @pytest.mark.parametrize("scheme, hypothesis", sorted(GOLDEN_HITS))
    def test_exact_hits(self, scheme, hypothesis):
        est = estimate_point(GOLDEN_CONFIGS[scheme], hypothesis, GOLDEN_TRIALS,
                             seed=2024, stream_id=3)
        assert est.trials == GOLDEN_TRIALS
        assert est.events == GOLDEN_HITS[scheme, hypothesis]
        assert est.value == GOLDEN_HITS[scheme, hypothesis] / GOLDEN_TRIALS

    def test_escalated_point(self):
        est = escalated_deep_point()
        assert est.trials == 10 ** 6
        assert est.trials - est.events == 255

    def test_escalation_equals_fixed_budget(self):
        est = escalated_deep_point()
        assert est == estimate_point(DEEP, "H1", est.trials, seed=7)


class TestBlockScheduling:
    def test_pooled_equals_inline(self, monkeypatch):
        cfg = GOLDEN_CONFIGS["coop"]
        pooled = estimate_point(cfg, "H1", GOLDEN_TRIALS, seed=2024, stream_id=3)
        deep_pooled = escalated_deep_point()
        monkeypatch.setattr(simkit, "_worker_count", lambda: 1)
        assert estimate_point(cfg, "H1", GOLDEN_TRIALS, seed=2024,
                              stream_id=3) == pooled
        assert escalated_deep_point() == deep_pooled

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
