"""Monte Carlo engine for all three sensing schemes, and the scheme table.

Each sensing scheme is described once, by one object in ``SCHEMES``: its
scenario and variant names, payload type, threshold from alpha, analytic
(pf, pmd) columns, per-block decisions and diversity order.

Trials are vectorized in fixed-size blocks of 65536; block b of a point draws
from its own SFC64 generator, seeded from (seed, stream_id, b) by
``channel.RandomStream``, so an estimate is bit-exact reproducible for a given
seed and total trial count no matter how blocks are scheduled.  A block
returns its count of "present" decisions, and counts merge by integer
addition.  Blocks run concurrently on a thread pool sized to the CPU
affinity (numpy's generators and ufuncs release the GIL), and an escalating
point keeps the counts of the blocks it has already drawn.  A sweep issues
all of its points at once from a few driver threads, so the blocks of
several points share the pool; each estimate still depends only on its own
(seed, stream, trials), so no bit depends on how the points overlap.

Both levels are needed.  One deep point escalates to many blocks, which only
the block pool spreads over the cores; a sweep of many small points, each a
single block, keeps the cores busy only through its drivers.  The block pool
is built at import, which starts no thread: an executor starts its threads
at its first submit.

Per-window energy statistics are drawn from their exact sampling laws
(chi-square sums of the per-sample energies under the unit-variance-per-real-
dimension convention), which is distributionally identical to summing squared
per-sample draws and two orders of magnitude faster.

A trial draws only what can still change its decision.  Cooperative users
report one at a time, and a trial stops once its vote is settled; switching
states add in dwell order (the equal split of M over Q), and a trial stops
once its sum passes the threshold; selection draws the best state's SNR from
the max-of-Q law (``channel.draw_best_snr``) with one uniform, not Q fades.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import AvgSnr, RandomStream, draw_best_snr, draw_snr
from .detector import DetectorParams, _faded_miss, calibrate_lambda, pf_single
from .fusion import FusionParams, calibrate_local_lambda_global, global_pf, global_pmd
from .reconfig import ReconfigParams, avg_pmd_selection, avg_pmd_switching

_BLOCK = 1 << 16
_Z99 = 2.576  # two-sided 99% normal quantile
_MIN_EVENTS = 100  # missed-detection events a cell needs to enter a slope fit
_MIN_TRIALS = 1000  # the smallest trial budget of an estimate or a scenario
_MAX_TRIALS = 10 ** 8  # the largest, and the escalation cap


# The scheme methods call the analytic functions through this module's
# globals at call time, so a wrapper installed on those bindings sees them.
class _Noncoop:
    """One user senses M samples.  Each scheme below overrides what differs.

    ``payload`` builds the scheme's parameters from a scenario's fields with
    a placeholder threshold; ``threshold`` returns them with the threshold
    set so that the scheme's P_F equals alpha.  ``decisions`` returns a
    block's count of "present" decisions.
    """

    variant = scenario = "noncoop"
    payload_type = DetectorParams

    def payload(self, sc):
        return DetectorParams(m=sc.m, lam=1.0)

    def threshold(self, p, alpha: float):
        return replace(p, lam=calibrate_lambda(p.m, alpha))

    def diversity(self, p) -> float:
        return 1.0

    def analytic(self, p, avg) -> tuple[float, float]:
        return pf_single(p.m, p.lam), _faded_miss(p.m, p.lam, AvgSnr.coerce(avg).gamma_bar)

    # Products and sums are formed in place so that concurrent blocks stay
    # small; x *= c and x += 1 give the same bits as c * x and 1 + x.
    def decisions(self, p, signal: bool, avg, gen, n: int) -> int:
        y = gen.chisquare(2 * p.m, n)
        if signal:
            y *= _one_plus_snr(avg, gen, n)
        return int(np.count_nonzero(y > p.lam))


class _Coop(_Noncoop):
    """N users, n-out-of-N fusion; the threshold holds the global level alpha."""

    variant = scenario = "coop"
    payload_type = FusionParams

    def payload(self, sc):
        return FusionParams(n_users=sc.n_users, n_vote=sc.n_vote,
                            per_user=super().payload(sc))

    def threshold(self, p, alpha: float):
        lam = calibrate_local_lambda_global(p.n_users, p.n_vote, p.per_user.m, alpha)
        return replace(p, per_user=replace(p.per_user, lam=lam))

    def diversity(self, p) -> float:
        return float(p.n_users - p.n_vote + 1)

    def analytic(self, p, avg) -> tuple[float, float]:
        return global_pf(p), global_pmd(p, avg)

    # Users report one at a time, and only the undecided trials draw the
    # next report: a trial is present once it has n_vote votes, absent once
    # its votes plus the users still to report fall short of n_vote.
    def decisions(self, p, signal: bool, avg, gen, n: int) -> int:
        d = p.per_user
        present = 0
        votes = np.zeros(n, dtype=np.int64)  # of the undecided trials
        for users_left in range(p.n_users - 1, -1, -1):
            y = gen.chisquare(2 * d.m, votes.size)
            if signal:
                y *= _one_plus_snr(avg, gen, votes.size)
            votes += y > d.lam
            won = votes >= p.n_vote
            present += int(np.count_nonzero(won))
            votes = votes[~won & (votes + users_left >= p.n_vote)]
            if not votes.size:
                break
        return present


class _Switching(_Noncoop):
    """One user dwells l_j samples on each of Q antenna states.

    The reconfigurable schemes share the noncoop H0 statistic, chi-square(2M),
    and so its threshold.
    """

    variant, scenario = "reconfig-switching", "switching"
    payload_type = ReconfigParams

    def payload(self, sc):
        return ReconfigParams(q=sc.q, m=sc.m, lam=1.0)

    def diversity(self, p) -> float:
        return float(min(p.m, p.q))

    def analytic(self, p, avg) -> tuple[float, float]:
        pmd = min(1.0, avg_pmd_switching(p, avg))
        return pf_single(p.m, p.lam), pmd

    # Under H1 the states add in dwell order, and only the trials whose sum
    # is still <= lam draw the next state: every term is >= 0, so a trial
    # above lam stays above.
    def decisions(self, p, signal: bool, avg, gen, n: int) -> int:
        if not signal:
            return super().decisions(p, signal, avg, gen, n)
        present = 0
        y = np.zeros(n)  # running sums of the undecided trials
        for dwell in p.alloc:
            energy = gen.chisquare(2 * dwell, y.size)
            energy *= _one_plus_snr(avg, gen, y.size)
            y += energy
            below = y <= p.lam
            present += y.size - int(np.count_nonzero(below))
            y = y[below]
            if not y.size:
                break
        return present


class _Selection(_Switching):
    """One user senses the whole window on the best of Q antenna states.

    Under H1 the best state's SNR is one draw from its own law,
    (1 - e^{-x/gamma_bar})^Q, not the maximum of Q fades.
    """

    variant, scenario = "reconfig-selection", "selection"

    def analytic(self, p, avg) -> tuple[float, float]:
        return pf_single(p.m, p.lam), avg_pmd_selection(p.m, p.lam, avg, p.q)

    def decisions(self, p, signal: bool, avg, gen, n: int) -> int:
        y = gen.chisquare(2 * p.m, n)
        if signal:
            gain = draw_best_snr(avg, gen, n, p.q)
            gain += 1.0
            y *= gain
        return int(np.count_nonzero(y > p.lam))


#: The sensing schemes by ``SchemeConfig.variant`` and by scenario name.
SCHEMES = {s.variant: s for s in (_Noncoop(), _Coop(), _Switching(), _Selection())}
SCENARIO_SCHEMES = {s.scenario: s for s in SCHEMES.values()}


@dataclass(frozen=True)
class SchemeConfig:
    """A sensing scheme bound to an average SNR for simulation.

    The payload's threshold is used as given; the factories that take
    ``alpha`` and :meth:`with_alpha` set it from the NP level.
    """

    variant: str
    payload: DetectorParams | FusionParams | ReconfigParams
    avg_snr: AvgSnr

    def __post_init__(self):
        if self.variant not in SCHEMES:
            raise ValueError(f"unknown scheme variant {self.variant!r}")
        expected = self.scheme.payload_type
        if not isinstance(self.payload, expected):
            raise ValueError(
                f"variant {self.variant!r} needs a {expected.__name__} payload, "
                f"got {type(self.payload).__name__}")

    @property
    def scheme(self) -> _Noncoop:
        return SCHEMES[self.variant]

    def with_snr(self, avg) -> "SchemeConfig":
        return replace(self, avg_snr=AvgSnr.coerce(avg))

    def with_alpha(self, alpha: float) -> "SchemeConfig":
        """Copy with the threshold set so that the scheme's P_F equals alpha."""
        return replace(self, payload=self.scheme.threshold(self.payload, alpha))

    @classmethod
    def noncoop(cls, m: int, lam: float, avg, alpha: float | None = None) -> "SchemeConfig":
        config = cls("noncoop", DetectorParams(m=m, lam=lam), AvgSnr.coerce(avg))
        return config if alpha is None else config.with_alpha(alpha)

    @classmethod
    def coop(cls, n_users: int, n_vote: int, m: int, lam: float, avg,
             alpha: float | None = None) -> "SchemeConfig":
        per_user = DetectorParams(m=m, lam=lam)
        config = cls("coop", FusionParams(n_users=n_users, n_vote=n_vote,
                                          per_user=per_user), AvgSnr.coerce(avg))
        return config if alpha is None else config.with_alpha(alpha)

    @classmethod
    def switching(cls, q: int, m: int, lam: float, avg) -> "SchemeConfig":
        return cls("reconfig-switching", ReconfigParams(q=q, m=m, lam=lam),
                   AvgSnr.coerce(avg))

    @classmethod
    def selection(cls, q: int, m: int, lam: float, avg) -> "SchemeConfig":
        return cls("reconfig-selection", ReconfigParams(q=q, m=m, lam=lam),
                   AvgSnr.coerce(avg))


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo probability estimate with a 99% normal-approximation CI."""

    value: float
    trials: int
    ci_halfwidth: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"estimate {self.value!r} outside [0, 1]")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.ci_halfwidth < 0.0:
            raise ValueError("ci_halfwidth must be >= 0")

    @property
    def events(self) -> int:
        return int(round(self.value * self.trials))

    @classmethod
    def from_counts(cls, hits: int, trials: int) -> "McEstimate":
        v = hits / trials
        return cls(value=v, trials=trials,
                   ci_halfwidth=_Z99 * math.sqrt(v * (1.0 - v) / trials))


@dataclass(frozen=True)
class SweepPoint:
    snr_db: float
    pmd: McEstimate
    pf: McEstimate


@dataclass(frozen=True)
class SweepCurve:
    """Missed-detection sweep over an increasing average-SNR grid."""

    points: tuple[SweepPoint, ...] = field(default_factory=tuple)

    def __post_init__(self):
        _check_increasing([p.snr_db for p in self.points])


def _check_increasing(grid: list[float]) -> None:
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("SNR grid must be strictly increasing")


def _batch_decisions(config: SchemeConfig, hypothesis: str,
                     gen: np.random.Generator, n: int) -> int:
    """How many of n trials of one scheme decide "present"."""
    if hypothesis not in ("H0", "H1"):
        raise ValueError(f"hypothesis must be 'H0' or 'H1', got {hypothesis!r}")
    return config.scheme.decisions(config.payload, hypothesis == "H1",
                                   config.avg_snr, gen, n)


def _one_plus_snr(avg, gen: np.random.Generator, size) -> np.ndarray:
    """1 + gamma for an array of fading draws, formed in the draw's own array."""
    gain = draw_snr(avg, gen, size)
    gain += 1.0
    return gain


def estimate_point(config: SchemeConfig, hypothesis: str, trials: int, seed: int,
                   *, stream_id: int = 0, min_events: int | None = None,
                   max_trials: int = _MAX_TRIALS) -> McEstimate:
    """Monte Carlo estimate of P(decision = present) from per-block substreams.

    Deterministic for fixed (seed, stream_id, trials) regardless of execution
    order.  When ``min_events`` is given, the trial count escalates tenfold
    (capped at ``max_trials``) until that many "absent" decisions have been
    seen, which keeps deep-tail missed-detection points eligible for slope
    fits.  Each step draws only the blocks that no
    earlier step has counted, so escalating to T trials gives the same bits
    as asking for T trials at once.  ``trials`` and ``max_trials`` are
    checked against the budget bounds, and with ``min_events`` against each
    other, before any block is planned.
    """
    if not _MIN_TRIALS <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be in [{_MIN_TRIALS}, {_MAX_TRIALS}], got {trials}")
    if max_trials > _MAX_TRIALS:
        raise ValueError(f"max_trials must be at most {_MAX_TRIALS}, got {max_trials}")
    if min_events is not None and max_trials < trials:
        raise ValueError(f"max_trials must be at least trials ({trials}), got {max_trials}")
    base = RandomStream(seed=seed, stream_id=stream_id)

    def count(block: tuple[int, int]) -> int:
        block_idx, take = block
        gen = base.substream(block_idx).generator()
        return _batch_decisions(config, hypothesis, gen, take)

    # Hits per (block_idx, take).  A complete block is the same draw at every
    # escalation step; a partial last block is drawn again at its new size.
    counted: dict[tuple[int, int], int] = {}

    def run(total: int) -> int:
        plan = _block_plan(total)
        todo = [block for block in plan if block not in counted]
        counted.update(zip(todo, _map(count, todo, _pool)))
        return sum(counted[block] for block in plan)

    trials = int(trials)
    hits = run(trials)
    if min_events is not None:
        while trials - hits < min_events and trials < max_trials:
            trials = min(trials * 10, int(max_trials))
            hits = run(trials)
    return McEstimate.from_counts(hits, trials)


def _block_plan(total: int) -> list[tuple[int, int]]:
    """The (block_idx, take) pairs that make up ``total`` trials."""
    full, rest = divmod(total, _BLOCK)
    plan = [(block_idx, _BLOCK) for block_idx in range(full)]
    if rest:
        plan.append((full, rest))
    return plan


def _worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _new_pool() -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=_worker_count(), thread_name_prefix="specsense-mc")


# The block pool.  An executor starts no thread before its first submit.
_pool = _new_pool()


def _new_pool_in_child() -> None:
    # The parent's worker threads do not exist in a forked child.
    global _pool
    _pool = _new_pool()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool_in_child)


def _map(fn, items, pool: ThreadPoolExecutor) -> list:
    """``[fn(x) for x in items]``, on ``pool`` when that can help.

    Results come in list order: the first failing item in that order
    raises, and items not yet started are cancelled.
    """
    if len(items) < 2 or _worker_count() < 2:
        return [fn(x) for x in items]
    return list(pool.map(fn, items))


def sweep(config_template: SchemeConfig, snr_grid_db, trials: int, seed: int,
          *, min_events: int | None = None, max_trials: int = _MAX_TRIALS) -> SweepCurve:
    """Missed-detection curve over an SNR grid, plus one shared H0 check.

    The template's threshold is held constant across the grid: alpha fixes
    lambda independent of the SNR, so it is set once, when the config is
    built.  Point i uses substream i+1; the H0 false-alarm estimate uses
    substream 0 and is attached to every point.

    Pass ``min_events`` (``_MIN_EVENTS`` for slope fits) to escalate deep-tail points until
    they carry enough missed-detection events for slope fitting; leave it
    None for fixed-budget figure exports.

    The H0 estimate and every point's ``estimate_point`` run on up to
    ``_worker_count() + 1`` driver threads, made for this call and joined
    before it returns, so one point's blocks queue on the block pool while
    another's run; the extra driver keeps blocks queued while another
    collects its counts.  The curve has the same bits as issuing the
    estimates one by one.
    """
    snr_grid_db = [float(s) for s in snr_grid_db]
    if not snr_grid_db:
        raise ValueError("SNR grid must be nonempty")
    _check_increasing(snr_grid_db)  # before any estimate runs

    def estimate(stream_id: int) -> McEstimate:
        if stream_id == 0:
            return estimate_point(config_template, "H0", trials, seed, stream_id=0)
        at_snr = config_template.with_snr(AvgSnr.from_db(snr_grid_db[stream_id - 1]))
        return estimate_point(at_snr, "H1", trials, seed, stream_id=stream_id,
                              min_events=min_events, max_trials=max_trials)

    streams = range(len(snr_grid_db) + 1)
    with ThreadPoolExecutor(max_workers=min(_worker_count() + 1, len(streams)),
                            thread_name_prefix="specsense-sweep") as drivers:
        pf_est, *dets = _map(estimate, streams, drivers)
    # The Wald half-width is symmetric, so the miss keeps the detection's.
    return SweepCurve(points=tuple(
        SweepPoint(snr_db=snr_db, pmd=replace(det, value=1.0 - det.value), pf=pf_est)
        for snr_db, det in zip(snr_grid_db, dets)))


def fit_diversity_slope(curve: SweepCurve, window_db: tuple[float, float]) -> float:
    """Diversity order from the high-SNR slope of log pmd vs log gamma_bar.

    Least-squares slope of log10(pmd) against log10(gamma_bar) over the
    window, negated.  Zero-count cells and cells under ``_MIN_EVENTS`` events are
    excluded with a warning; fewer than 3 usable points is an error.
    """
    lo, hi = window_db
    xs, ys = [], []
    for point in curve.points:
        if not lo <= point.snr_db <= hi:
            continue
        if point.pmd.value <= 0.0:
            warnings.warn(f"excluding zero-count cell at {point.snr_db} dB")
            continue
        if point.pmd.events < _MIN_EVENTS:
            warnings.warn(
                f"excluding cell at {point.snr_db} dB with only "
                f"{point.pmd.events} missed-detection events")
            continue
        xs.append(point.snr_db / 10.0)  # log10(gamma_bar)
        ys.append(math.log10(point.pmd.value))
    if len(xs) < 3:
        raise ValueError(
            f"need at least 3 usable points in window {window_db}, got {len(xs)}")
    slope = np.polyfit(np.array(xs), np.array(ys), 1)[0]
    return -float(slope)
