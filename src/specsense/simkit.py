"""Monte Carlo engine for all three sensing schemes.

Trials are vectorized in fixed-size blocks of 65536; block b of a point draws
from the Philox substream (seed, stream_id, b), so an estimate is bit-exact
reproducible for a given seed and total trial count no matter how blocks are
scheduled, and results merge by plain integer-count addition.  Blocks run
concurrently on a thread pool sized to the CPU affinity (numpy's generators
and ufuncs release the GIL), and an escalating point keeps the counts of the
blocks it has already drawn.

Per-window energy statistics are drawn from their exact sampling laws
(chi-square sums of the per-sample energies under the unit-variance-per-real-
dimension convention), which is distributionally identical to summing squared
per-sample draws and two orders of magnitude faster.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import AvgSnr, RandomStream, draw_snr
from .detector import DetectorParams, calibrate_lambda
from .fusion import FusionParams, calibrate_local_lambda_global
from .reconfig import ReconfigParams, allocate_samples

_BLOCK = 1 << 16
_Z99 = 2.576  # two-sided 99% normal quantile

VARIANTS = ("noncoop", "coop", "reconfig-switching", "reconfig-selection")


@dataclass(frozen=True)
class SchemeConfig:
    """A sensing scheme bound to an average SNR for simulation."""

    variant: str
    payload: DetectorParams | FusionParams | ReconfigParams
    avg_snr: AvgSnr

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown scheme variant {self.variant!r}")
        expected = {
            "noncoop": DetectorParams,
            "coop": FusionParams,
            "reconfig-switching": ReconfigParams,
            "reconfig-selection": ReconfigParams,
        }[self.variant]
        if not isinstance(self.payload, expected):
            raise ValueError(
                f"variant {self.variant!r} needs a {expected.__name__} payload, "
                f"got {type(self.payload).__name__}")
        if self.variant == "reconfig-switching" and self.payload.csi_mode != "switching":
            raise ValueError("switching variant requires csi_mode='switching'")
        if self.variant == "reconfig-selection" and self.payload.csi_mode != "selection":
            raise ValueError("selection variant requires csi_mode='selection'")

    @property
    def total_samples(self) -> int:
        """Total sensed samples: N*M for the cooperative network, M otherwise."""
        if self.variant == "coop":
            return self.payload.n_users * self.payload.per_user.m
        return self.payload.m

    def with_snr(self, avg) -> "SchemeConfig":
        return replace(self, avg_snr=AvgSnr.coerce(avg))

    @classmethod
    def noncoop(cls, m: int, lam: float, avg, alpha: float | None = None) -> "SchemeConfig":
        return cls("noncoop", DetectorParams(m=m, lam=lam, alpha=alpha),
                   AvgSnr.coerce(avg))

    @classmethod
    def coop(cls, n_users: int, n_vote: int, m: int, lam: float, avg,
             alpha: float | None = None) -> "SchemeConfig":
        per_user = DetectorParams(m=m, lam=lam, alpha=alpha)
        return cls("coop", FusionParams(n_users=n_users, n_vote=n_vote,
                                        per_user=per_user), AvgSnr.coerce(avg))

    @classmethod
    def switching(cls, q: int, m: int, lam: float, avg,
                  alloc: tuple[int, ...] | None = None) -> "SchemeConfig":
        alloc = tuple(alloc) if alloc is not None else allocate_samples(m, q)
        params = ReconfigParams(q=q, m=m, alloc=alloc, lam=lam, csi_mode="switching")
        return cls("reconfig-switching", params, AvgSnr.coerce(avg))

    @classmethod
    def selection(cls, q: int, m: int, lam: float, avg) -> "SchemeConfig":
        params = ReconfigParams(q=q, m=m, alloc=allocate_samples(m, q),
                                lam=lam, csi_mode="selection")
        return cls("reconfig-selection", params, AvgSnr.coerce(avg))


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo probability estimate with a 99% normal-approximation CI."""

    value: float
    trials: int
    ci_halfwidth: float
    seed: int

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
    def from_counts(cls, hits: int, trials: int, seed: int) -> "McEstimate":
        v = hits / trials
        return cls(value=v, trials=trials, seed=seed,
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
        grid = [p.snr_db for p in self.points]
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("SNR grid must be strictly increasing")

    def snr_db_values(self) -> np.ndarray:
        return np.array([p.snr_db for p in self.points])

    def pmd_values(self) -> np.ndarray:
        return np.array([p.pmd.value for p in self.points])


def _batch_decisions(config: SchemeConfig, hypothesis: str,
                     gen: np.random.Generator, n: int) -> np.ndarray:
    """Vector of n present/absent decisions (True = present) for one scheme."""
    if hypothesis not in ("H0", "H1"):
        raise ValueError(f"hypothesis must be 'H0' or 'H1', got {hypothesis!r}")
    signal = hypothesis == "H1"
    avg = config.avg_snr
    p = config.payload

    # Products and sums are formed in place so that concurrent blocks stay
    # small; x *= c and x += 1 give the same bits as c * x and 1 + x.
    if config.variant == "noncoop":
        y = gen.chisquare(2 * p.m, n)
        if signal:
            y *= _one_plus_snr(avg, gen, n)
        return y > p.lam

    if config.variant == "coop":
        d = p.per_user
        y = gen.chisquare(2 * d.m, (n, p.n_users))
        if signal:
            y *= _one_plus_snr(avg, gen, (n, p.n_users))
        return (y > d.lam).sum(axis=1) >= p.n_vote

    if config.variant == "reconfig-switching":
        if signal:
            gammas = _one_plus_snr(avg, gen, (n, len(p.alloc)))
            y = np.zeros(n)
            for j, dwell in enumerate(p.alloc):
                energy = gen.chisquare(2 * dwell, n)
                energy *= gammas[:, j]
                y += energy
        else:
            y = gen.chisquare(2 * sum(p.alloc), n)
        return y > p.lam

    # reconfig-selection: sense the whole window on the best of Q states.
    y = gen.chisquare(2 * p.m, n)
    if signal:
        gain = draw_snr(avg, gen, (n, p.q)).max(axis=1)
        gain += 1.0
        y *= gain
    return y > p.lam


def _one_plus_snr(avg, gen: np.random.Generator, size) -> np.ndarray:
    """1 + gamma for an array of fading draws, formed in the draw's own array."""
    gain = draw_snr(avg, gen, size)
    gain += 1.0
    return gain


def run_trial(config: SchemeConfig, hypothesis: str, rng) -> bool:
    """Single sensing-window trial; True means 'primary present' declared."""
    gen = rng.generator() if isinstance(rng, RandomStream) else rng
    return bool(_batch_decisions(config, hypothesis, gen, 1)[0])


def estimate_point(config: SchemeConfig, hypothesis: str, trials: int, seed: int,
                   *, stream_id: int = 0, min_events: int | None = None,
                   floor_side: str = "absent",
                   max_trials: int = 10 ** 8) -> McEstimate:
    """Monte Carlo estimate of P(decision = present) from per-block substreams.

    Deterministic for fixed (seed, stream_id, trials) regardless of execution
    order.  When ``min_events`` is given, the trial count escalates tenfold
    (capped at ``max_trials``) until that many decisions on ``floor_side``
    have been seen; flooring on "absent" keeps deep-tail missed-detection
    points eligible for slope fits.  Each step draws only the blocks that no
    earlier step has counted, so escalating to T trials gives the same bits
    as asking for T trials at once.
    """
    if trials < 1000:
        raise ValueError(f"need at least 1000 trials, got {trials}")
    if floor_side not in ("present", "absent"):
        raise ValueError(f"floor_side must be 'present' or 'absent', got {floor_side!r}")
    base = RandomStream(seed=seed, stream_id=stream_id)

    def count(block: tuple[int, int]) -> int:
        block_idx, take = block
        gen = base.substream(block_idx).generator()
        return int(_batch_decisions(config, hypothesis, gen, take).sum())

    # Hits per (block_idx, take).  A complete block is the same draw at every
    # escalation step; a partial last block is drawn again at its new size.
    counted: dict[tuple[int, int], int] = {}

    def run(total: int) -> int:
        plan = _block_plan(total)
        todo = [block for block in plan if block not in counted]
        counted.update(zip(todo, _map_blocks(count, todo)))
        return sum(counted[block] for block in plan)

    trials = int(trials)
    hits = run(trials)
    if min_events is not None:
        def floored(h: int, t: int) -> int:
            return h if floor_side == "present" else t - h
        while floored(hits, trials) < min_events and trials < max_trials:
            trials = min(trials * 10, int(max_trials))
            hits = run(trials)
    return McEstimate.from_counts(hits, trials, seed)


def _block_plan(total: int) -> list[tuple[int, int]]:
    """The (block_idx, take) pairs that make up ``total`` trials."""
    full, rest = divmod(total, _BLOCK)
    plan = [(block_idx, _BLOCK) for block_idx in range(full)]
    if rest:
        plan.append((full, rest))
    return plan


_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _worker_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _map_blocks(fn, blocks: list) -> list:
    """``[fn(b) for b in blocks]``, on the shared thread pool when that can help."""
    workers = _worker_count()
    if len(blocks) < 2 or workers < 2:
        return [fn(b) for b in blocks]
    return list(_shared_pool(workers).map(fn, blocks))


def _shared_pool(workers: int) -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=workers,
                                       thread_name_prefix="specsense-mc")
        return _pool


def _drop_pool_in_child() -> None:
    # The parent's worker threads do not exist in a forked child.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool_in_child)


def sweep(config_template: SchemeConfig, snr_grid_db, trials: int, seed: int,
          *, min_events: int | None = None, max_trials: int = 10 ** 8) -> SweepCurve:
    """Missed-detection curve over an SNR grid, plus one shared H0 check.

    The threshold is recalibrated from the template's NP level alpha before
    sweeping and then held constant across the grid (alpha fixes lambda
    independent of the SNR).  Point i uses substream i+1; the H0 false-alarm
    estimate uses substream 0 and is attached to every point.

    Pass ``min_events`` (typically 100) to escalate deep-tail points until
    they carry enough missed-detection events for slope fitting; leave it
    None for fixed-budget figure exports.
    """
    snr_grid_db = [float(s) for s in snr_grid_db]
    if not snr_grid_db:
        raise ValueError("SNR grid must be nonempty")
    config = recalibrate(config_template)

    pf_est = estimate_point(config, "H0", trials, seed, stream_id=0)
    points = []
    for i, snr_db in enumerate(snr_grid_db):
        at_snr = config.with_snr(AvgSnr.from_db(snr_db))
        det = estimate_point(at_snr, "H1", trials, seed, stream_id=i + 1,
                             min_events=min_events, max_trials=max_trials)
        pmd = McEstimate(value=1.0 - det.value, trials=det.trials,
                         ci_halfwidth=det.ci_halfwidth, seed=seed)
        points.append(SweepPoint(snr_db=snr_db, pmd=pmd, pf=pf_est))
    return SweepCurve(points=tuple(points))


def recalibrate(config: SchemeConfig) -> SchemeConfig:
    """Return a copy with the threshold set from the payload's NP level."""
    p = config.payload
    if config.variant == "coop":
        alpha = p.per_user.alpha
        if alpha is None:
            return config
        lam = calibrate_local_lambda_global(p.n_users, p.n_vote, p.per_user.m, alpha)
        per_user = replace(p.per_user, lam=lam)
        return replace(config, payload=replace(p, per_user=per_user))
    alpha = getattr(p, "alpha", None)
    if config.variant == "noncoop":
        if alpha is None:
            return config
        return replace(config, payload=replace(p, lam=calibrate_lambda(p.m, alpha)))
    # Reconfigurable schemes share the noncoop H0 statistic: chi-square(2M).
    return config


def fit_diversity_slope(curve: SweepCurve, window_db: tuple[float, float],
                        *, min_events: int = 100) -> float:
    """Diversity order from the high-SNR slope of log pmd vs log gamma_bar.

    Least-squares slope of log10(pmd) against log10(gamma_bar) over the
    window, negated.  Zero-count cells and cells under the event floor are
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
        if point.pmd.events < min_events:
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
