"""Monte Carlo engine for all three sensing schemes, and the scheme table.

Each sensing scheme is described once, by one object in ``SCHEMES``: its
scenario and variant names, payload type, threshold from alpha, analytic
(pf, pmd) columns, per-block draws and diversity order.

Trials are vectorized in fixed-size blocks of 65536; block b of a stream
draws from its own SFC64 generator, seeded from (seed, stream_id, b) by
``channel.RandomStream``, so an estimate is bit-exact reproducible for a
given seed and total trial count no matter how blocks are scheduled.  A
block returns its counts of "present" decisions, and counts merge by
integer addition.  Blocks run concurrently on a thread pool sized to the
CPU affinity (numpy's generators and ufuncs release the GIL), and an
escalating stream keeps the counts of the blocks it has already drawn.  All
the curves of one ``sweep_curves`` call (a ``specsense figure``) share one
map per round, over every curve's H0 and H1 blocks, so the pool drains once
per round rather than once per curve; a block's bits still depend only on
(seed, stream, block, take) and its grid's ends.  The pool is built at
import, which starts no thread: an executor starts its threads at its first
submit.

A block allocates no float64 array of block size.  Each thread keeps one
pair of float64 arrays, each two blocks long, built at its first block and
lent to every later one (``_workspace``), so blocks draw into memory that is
already mapped; only a coop H1 block with more than two votes, whose n
smallest user values per trial do not fit, gets a pair of its own.
Energies are drawn in place as G = Y/2, a standard gamma, and tested
against lam/2, as ``pf_single`` reads them; numpy draws a chi-square Y as
2G, and halving is exact, so each decision is that of numpy's chi-square,
bit for bit.  Settled trials leave by one gather over the indices of those
kept (``_compact``), written into the array of the pair that the step's
draws no longer need; the two arrays then swap roles.

One set of H1 draws serves a whole SNR grid (common random numbers).  A
trial's energy statistics and unit-mean fades do not depend on the average
SNR gamma_bar; only the signal term grows with it, so each H1 trial has a
critical SNR c and decides "present" exactly when c < gamma_bar.  A trial
with c below the grid's first SNR is present at every point and one at or
above its last at none, so a block sorts only the c in between, once, and
counts every grid point by binary search.  All points of a sweep therefore
draw from one stream, and a point's bits depend on (seed, block, take) and
on the grid's first and last SNR, which bound the draws (below).  Each
point is still a binomial count of independent trials, so its confidence
interval is unchanged, but the errors of the points along one curve are
positively correlated.  Every point of a sweep reports at its stream's one
trial total, escalated or not, so the estimated curve cannot rise.

Per-window energy statistics are drawn from their exact sampling laws
(Gamma(l), half the chi-square sum of l per-sample energies under the
unit-variance-per-real-dimension convention), which is distributionally
identical to summing squared per-sample draws and two orders of magnitude
faster.

A trial draws only what can still change its decision anywhere on the grid,
and ``_batch_decisions`` settles what the last state or user leaves open.
Switching states add in dwell order (the equal split of M over Q), and a
trial stops once it is present at the first grid SNR; noncoop and selection
(whose best-state fade is one uniform, ``channel.draw_best_snr``) are that
loop with one dwell.  Cooperative users draw one state each and report one
at a time, and a trial stops once its vote is settled at every grid SNR:
present at the first, or short of n votes at the last.  Under H0 no fade is
drawn.
"""

from __future__ import annotations

import functools
import math
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import AvgSnr, RandomStream, draw_best_snr, draw_snr
from .detector import _CACHE_SIZE, DetectorParams, _faded_miss, calibrate_lambda, pf_single
from .fusion import FusionParams, calibrate_local_lambda_global, global_pf, global_pmd
from .reconfig import ReconfigParams, avg_pmd_selection, avg_pmd_switching

_BLOCK = 1 << 16
_Z99 = 2.576  # two-sided 99% normal quantile
_MIN_EVENTS = 100  # missed-detection events a cell needs to enter a slope fit
_MIN_TRIALS = 1000  # the smallest trial budget of an estimate or a scenario
_MAX_TRIALS = 10 ** 8  # the largest, and the escalation cap


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _pf_column(scheme, p) -> float:
    """``scheme.pf(p)``: the false-alarm column does not depend on the SNR."""
    return scheme.pf(p)


def _critical_snr(half_lam: float, energy, weighted, out=None) -> np.ndarray:
    """(half_lam - energy) / weighted: the average SNR above which a trial reads present.

    A trial decides present at gamma_bar when energy + gamma_bar * weighted >
    half_lam = lam / 2, with ``energy`` its gamma energy (half its chi-square
    sum) and ``weighted`` the sum of each state's gamma energy times its
    unit-mean fade.  A zero weight gives -inf (present at every SNR) or +inf
    (absent at every one); energy == half_lam with a zero weight gives 0/0,
    set to +inf, since that trial too reads absent at every SNR.
    """
    out = np.subtract(half_lam, energy, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= weighted
    return np.fmin(out, np.inf, out=out)  # fmin maps NaN to the other operand


def _compact(keep, values, out) -> np.ndarray:
    """The columns of ``values`` where ``keep`` holds, in order, at the front of ``out``.

    One gather over the indices of ``keep``, the same for every row: a
    boolean index would branch on each trial and build an array of its own.
    """
    where = np.flatnonzero(keep)
    shape = values.shape[:-1] + (where.size,)
    # No index needs clipping; unlike "raise", "clip" writes into out directly.
    return np.take(values, where, axis=-1, out=out[:math.prod(shape)].reshape(shape),
                   mode="clip")


_local = threading.local()  # each thread's workspace pair


def _workspace(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Two float64 arrays of at least ``size`` values, for one block on this thread.

    A thread builds its pair of ``2 * _BLOCK`` values each at its first block
    and lends it to every later block, so that blocks draw into memory that
    is already mapped.  A larger request (a coop H1 block with more than two
    votes) gets a pair of its own, so that no thread keeps more than that.
    """
    if size > 2 * _BLOCK:
        return np.empty(size), np.empty(size)
    ws = getattr(_local, "ws", None)
    if ws is None:
        ws = _local.ws = (np.empty(2 * _BLOCK), np.empty(2 * _BLOCK))
    return ws


# The scheme methods call the analytic functions through this module's
# globals at call time, so a wrapper installed on those bindings sees them
# (the pf functions only when ``_pf_column`` misses).
class _Noncoop:
    """One user senses M samples.  Each scheme below overrides what differs.

    ``payload`` builds the scheme's parameters from a scenario's fields with
    a placeholder threshold; ``threshold`` returns them with the threshold
    set so that the scheme's P_F equals alpha.  ``analytic`` takes the P_F
    column from ``pf`` once per payload; ``describe`` gives the payload's
    part of what ``specsense calibrate`` prints.  ``false_alarms`` counts the
    "present" decisions of a block of n trials under H0.  ``critical_snrs``
    draws such a block under H1, one state of ``dwells`` at a time, for a
    grid of SNRs from ``lo`` to ``hi``: it returns how many trials it found
    present at every SNR of the grid, and the critical SNR (``_critical_snr``)
    of each trial still open after its last stage, for the caller to settle;
    a trial found absent at every SNR is in neither.  Both draw into the
    workspace ``ws``, a pair of float64 arrays of at least n values each
    under H0 and ``rows(p) * n`` under H1, and allocate nothing of block
    size; the critical SNRs lie in ``ws[0]``, ``ws[1]`` free for the caller.
    """

    variant = scenario = "noncoop"
    payload_type = DetectorParams

    def payload(self, sc):
        return DetectorParams(m=sc.m, lam=1.0)

    def threshold(self, p, alpha: float):
        return replace(p, lam=calibrate_lambda(p.m, alpha))

    def diversity(self, p) -> float:
        return 1.0

    def pf(self, p) -> float:
        return pf_single(p.m, p.lam)

    def analytic(self, p, avg) -> tuple[float, float]:
        return _pf_column(self, p), _faded_miss(p.m, p.lam, AvgSnr.coerce(avg).gamma_bar)

    def describe(self, p) -> tuple[str, str]:
        return f"M={p.m}", f"lambda={p.lam:.10g} pf={self.pf(p):.10g}"

    def rows(self, p) -> int:
        """Values per trial that ``critical_snrs`` may keep in each workspace array."""
        return 2

    def dwells(self, p) -> tuple[int, ...]:
        return (p.m,)  # one antenna state for the whole window

    def false_alarms(self, p, gen, n: int, ws) -> int:
        return int(np.count_nonzero(gen.standard_gamma(p.m, out=ws[0][:n]) > p.lam / 2))

    def fade(self, p, gen, out) -> np.ndarray:
        """Unit-mean fades of one antenna state, written into ``out``."""
        return draw_snr(1.0, gen, out.size, out=out)

    # Under H1 the states add in dwell order, and only the trials still open
    # (not yet present at lo) draw the next state: every term is >= 0, so a
    # critical SNR only falls as states add.  The first state is drawn into
    # the running sums; the open trials' sums then move to the other array,
    # as coop's votes do, and each later state is drawn into the one left.
    def critical_snrs(self, p, lo: float, hi: float, gen, n: int, ws):
        half = p.lam / 2
        held, spare = ws
        first, *rest = self.dwells(p)
        sums = self._state(p, first, gen, held[:2 * n].reshape(2, n))
        for dwell in rest:
            keep = _critical_snr(half, *sums, out=spare[:sums.shape[1]]) >= lo
            sums = _compact(keep, sums, spare)
            held, spare = spare, held
            sums += self._state(p, dwell, gen, spare[:sums.size].reshape(sums.shape))
        return n - sums.shape[1], _critical_snr(half, *sums, out=ws[0][:sums.shape[1]])

    def _state(self, p, dwell: int, gen, out) -> np.ndarray:  # rows: energy, fade * energy
        gen.standard_gamma(dwell, out=out[0])
        self.fade(p, gen, out[1])
        out[1] *= out[0]
        return out


class _Coop(_Noncoop):
    """N users, n-out-of-N fusion; the threshold holds the global level alpha.

    A user votes present under H0 when its energy exceeds lam / 2, and under
    H1 above its own critical SNR, so a trial's critical SNR is the n-th
    smallest of its users'.
    """

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

    def pf(self, p) -> float:
        return global_pf(p)

    def analytic(self, p, avg) -> tuple[float, float]:
        return _pf_column(self, p), global_pmd(p, avg)

    def describe(self, p) -> tuple[str, str]:
        d = p.per_user
        return (f"N={p.n_users} n={p.n_vote} M={d.m}",
                f"lambda={d.lam:.10g} local_pf={pf_single(d.m, d.lam):.10g} "
                f"global_pf={self.pf(p):.10g}")

    def rows(self, p) -> int:
        return max(2, p.n_vote)

    # Users report one at a time, and only the undecided trials draw the
    # next report: a trial is present once it has n_vote votes, absent once
    # its votes plus the users still to report fall short of n_vote.  The
    # votes (small whole numbers, exact as floats) and the draws take turns
    # in the two workspace arrays: the undecided trials' votes are compacted
    # into the array that held the draws.
    def false_alarms(self, p, gen, n: int, ws) -> int:
        d = p.per_user
        present = 0
        held, spare = ws
        votes = held[:n]  # of the undecided trials
        votes.fill(0.0)
        for users_left in range(p.n_users - 1, -1, -1):
            votes += gen.standard_gamma(d.m, out=spare[:votes.size]) > d.lam / 2
            won = votes >= p.n_vote
            present += int(np.count_nonzero(won))
            votes = _compact(~won & (votes >= p.n_vote - users_left), votes, spare)
            held, spare = spare, held
            if not votes.size:
                break
        return present

    # Under H1 only the unsettled trials draw the next user's window, one
    # state, and its critical SNR c.  Row k of top holds each such trial's
    # (k+1)-th smallest c so far, so top[-1] is the n-th smallest.  The trial
    # is present at every SNR of [lo, hi] once top[-1] < lo, and absent at
    # every one once its values below hi plus the users still to report fall
    # short of n_vote, that is once top[n_vote - users_left - 1] >= hi.  As
    # with the votes, top and the draws take turns in the workspace arrays,
    # and one compaction moves all n_vote rows; the caller settles the last
    # user's.
    def critical_snrs(self, p, lo: float, hi: float, gen, n: int, ws):
        d = p.per_user
        half = d.lam / 2
        settled = 0
        held, spare = ws
        top = held[:p.n_vote * n].reshape(p.n_vote, n)
        top.fill(np.inf)
        for users_left in range(p.n_users - 1, -1, -1):
            k = top.shape[1]
            energy, weighted = self._state(d, d.m, gen, spare[:2 * k].reshape(2, k))
            c = _critical_snr(half, energy, weighted, out=energy)
            free = weighted  # spent once c is formed
            for j in range(p.n_vote - 1):  # insert c; the larger value moves on
                np.maximum(top[j], c, out=free)
                np.minimum(top[j], c, out=top[j])
                c, free = free, c
            np.minimum(top[-1], c, out=top[-1])
            if not users_left:
                break
            won = top[-1] < lo
            keep = ~won
            if users_left < p.n_vote:  # it needs that many values below hi
                keep &= top[p.n_vote - users_left - 1] < hi
            settled += int(np.count_nonzero(won))
            top = _compact(keep, top, spare)
            held, spare = spare, held
            if not top.shape[1]:
                break
        c = ws[0][:top.shape[1]]
        np.copyto(c, top[-1])  # copies nothing when top[-1] already lies there
        return settled, c


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
        return _pf_column(self, p), pmd

    def describe(self, p) -> tuple[str, str]:
        return f"Q={p.q} M={p.m}", super().describe(p)[1]

    def dwells(self, p) -> tuple[int, ...]:
        return p.alloc


class _Selection(_Switching):
    """One user senses the whole window on the best of Q antenna states.

    Under H1 the best state's fade is one draw from its own law,
    (1 - e^{-x})^Q, not the maximum of Q fades.
    """

    variant, scenario = "reconfig-selection", "selection"
    dwells = _Noncoop.dwells  # one window, on the best state

    def analytic(self, p, avg) -> tuple[float, float]:
        return _pf_column(self, p), avg_pmd_selection(p.m, p.lam, avg, p.q)

    def fade(self, p, gen, out) -> np.ndarray:
        return draw_best_snr(1.0, gen, out.size, p.q, out=out)


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


def _batch_decisions(config: SchemeConfig, gammas: np.ndarray | None,
                     gen: np.random.Generator, n: int) -> np.ndarray:
    """How many of n trials of one scheme decide "present".

    Under H0 (``gammas`` None) one count; under H1 one count per average SNR
    of the strictly increasing linear grid ``gammas``.  A trial whose
    critical SNR lies below the grid's first SNR is present at every point
    and one at or above its last at none, so only the critical SNRs in
    between are sorted, and each point counts them by binary search.  The
    block draws into its thread's workspace (``_workspace``); the counts it
    returns are an array of their own.
    """
    scheme, p = config.scheme, config.payload
    if gammas is None:
        return np.array([scheme.false_alarms(p, gen, n, _workspace(n))])
    ws = _workspace(scheme.rows(p) * n)
    lo, hi = gammas[0], gammas[-1]
    settled, c = scheme.critical_snrs(p, lo, hi, gen, n, ws)
    below = c < lo
    settled += int(np.count_nonzero(below))
    inside = c < hi
    inside ^= below  # lo <= c < hi, as lo <= hi
    window = _compact(inside, c, ws[1])
    window.sort()
    return settled + np.searchsorted(window, gammas)


class _Stream:
    """The blocks of one substream, each counted at every point it serves.

    ``gammas`` is the H1 grid, or None for the one H0 point.  With
    ``min_events`` set, the stream escalates as one unit: while any of its
    points is short of that many "absent" decisions.
    """

    def __init__(self, config: SchemeConfig, gammas, seed: int, stream_id: int,
                 min_events: int | None):
        self.config, self.gammas, self.min_events = config, gammas, min_events
        self.base = RandomStream(seed=seed, stream_id=stream_id)
        # Counts per (block_idx, take).  A complete block is the same draw at
        # every escalation step; a partial last block is drawn again at its
        # new size.
        self.counted: dict[tuple[int, int], np.ndarray] = {}

    def count(self, block: tuple[int, int]) -> np.ndarray:
        block_idx, take = block
        gen = self.base.substream(block_idx).generator()
        return _batch_decisions(self.config, self.gammas, gen, take)

    def hits(self, total: int) -> np.ndarray:
        return sum(self.counted[block] for block in _block_plan(total))


def _estimate(streams: list[_Stream], trials: int, max_trials: int) -> list[list[McEstimate]]:
    """Every point of every stream, from ``trials`` trials or escalated.

    A stream with a point short of its ``min_events`` "absent" decisions
    escalates tenfold, capped at ``max_trials``, and every point of a stream
    reports at the stream's final total.  Each round draws, in one map over
    the block pool, only the blocks that no earlier round has counted, of
    every stream given (all the curves of a figure), so escalating to T
    trials gives the same bits as asking for T trials at once, and a
    stream's bits do not depend on the streams mapped beside it.
    """
    totals = [trials] * len(streams)
    while True:
        todo = [(stream, block) for stream, total in zip(streams, totals)
                for block in _block_plan(total) if block not in stream.counted]
        for (stream, block), counts in zip(todo, _map(lambda job: job[0].count(job[1]), todo)):
            stream.counted[block] = counts
        hits = [stream.hits(total) for stream, total in zip(streams, totals)]
        short = [stream.min_events is not None and total < max_trials
                 and (total - at).min() < stream.min_events
                 for stream, total, at in zip(streams, totals, hits)]
        if not any(short):
            return [[McEstimate.from_counts(int(h), total) for h in at]
                    for total, at in zip(totals, hits)]
        totals = [min(total * 10, max_trials) if grow else total
                  for total, grow in zip(totals, short)]


def _check_budget(trials: int, min_events: int | None, max_trials: int) -> None:
    if not _MIN_TRIALS <= trials <= _MAX_TRIALS:
        raise ValueError(f"trials must be in [{_MIN_TRIALS}, {_MAX_TRIALS}], got {trials}")
    if max_trials > _MAX_TRIALS:
        raise ValueError(f"max_trials must be at most {_MAX_TRIALS}, got {max_trials}")
    if min_events is not None and max_trials < trials:
        raise ValueError(f"max_trials must be at least trials ({trials}), got {max_trials}")


def estimate_point(config: SchemeConfig, hypothesis: str, trials: int, seed: int,
                   *, stream_id: int = 0, min_events: int | None = None,
                   max_trials: int = _MAX_TRIALS) -> McEstimate:
    """Monte Carlo estimate of P(decision = present) from per-block substreams.

    Deterministic for fixed (seed, stream_id, trials) regardless of execution
    order.  When ``min_events`` is given, the trial count escalates tenfold
    (capped at ``max_trials``) until that many "absent" decisions have been
    seen, which keeps deep-tail missed-detection points eligible for slope
    fits.  Each step draws only the blocks that no earlier step has counted,
    so escalating to T trials gives the same bits as asking for T trials at
    once.  An H1 estimate is the one point of a sweep over the config's own
    SNR.  ``trials`` and ``max_trials`` are checked against the budget
    bounds, and with ``min_events`` against each other, before any block is
    planned.
    """
    _check_budget(trials, min_events, max_trials)
    if hypothesis not in ("H0", "H1"):
        raise ValueError(f"hypothesis must be 'H0' or 'H1', got {hypothesis!r}")
    gammas = None if hypothesis == "H0" else np.array([config.avg_snr.gamma_bar])
    [[est]] = _estimate([_Stream(config, gammas, seed, stream_id, min_events)],
                        int(trials), int(max_trials))
    return est


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


def _map(fn, items) -> list:
    """``[fn(x) for x in items]``, on the block pool.

    One call per round of ``_estimate``: its items are the blocks of every
    stream in that round, whichever curve they belong to.  Results come in
    list order: the first failing item in that order raises, and items not
    yet started are cancelled.
    """
    return list(_pool.map(fn, items))


def sweep(config_template: SchemeConfig, snr_grid_db, trials: int, seed: int,
          *, min_events: int | None = None, max_trials: int = _MAX_TRIALS) -> SweepCurve:
    """Missed-detection curve over an SNR grid, plus one shared H0 check.

    The template's threshold is held constant across the grid: alpha fixes
    lambda independent of the SNR, so it is set once, when the config is
    built.  All points share substream 1: each block is drawn once and
    counted at every grid point, so a point's bits depend on (seed, block,
    take) and on the grid's first and last SNR.  A one-point sweep's point
    equals ``estimate_point(config, "H1", ..., stream_id=1)`` at that SNR.
    The H0 false-alarm estimate uses substream 0 and is attached to every
    point.  Per-point confidence intervals are those of independent
    estimates, but the errors along the curve are correlated.

    Pass ``min_events`` (``_MIN_EVENTS`` for slope fits) to escalate deep-tail points until
    they carry enough missed-detection events for slope fitting; the H1
    stream escalates while any point is short, and every point reports at
    its final total.  Leave it None for fixed-budget figure exports.

    This is the one-curve case of :func:`sweep_curves`, which gives the
    same curve for this entry whatever other curves it sweeps beside it.
    """
    [curve] = sweep_curves([(config_template, snr_grid_db, seed)], trials,
                           min_events=min_events, max_trials=max_trials)
    return curve


def sweep_curves(curves, trials: int, *, min_events: int | None = None,
                 max_trials: int = _MAX_TRIALS) -> list[SweepCurve]:
    """One :func:`sweep` per (config, snr_grid_db, seed) entry, with one block map per round.

    Every entry's grid is checked (nonempty, strictly increasing), and then
    the budget, before any block is planned.  Each curve keeps its H0
    stream 0 and its H1 stream 1 under its own seed, and each H1 stream
    escalates on its own, so every curve has the bits that ``sweep`` gives
    it alone.  The H0 and H1 blocks of every curve that a round still
    needs go to the block pool in one map, so the pool drains once per
    round, not once per curve.
    """
    grids = []
    for _, snr_grid_db, _ in curves:
        snr_grid_db = [float(s) for s in snr_grid_db]
        if not snr_grid_db:
            raise ValueError("SNR grid must be nonempty")
        _check_increasing(snr_grid_db)  # before any block is drawn
        grids.append(snr_grid_db)
    _check_budget(trials, min_events, max_trials)
    streams = []
    for (config, _, seed), snr_grid_db in zip(curves, grids):
        gammas = np.array([AvgSnr.from_db(s).gamma_bar for s in snr_grid_db])
        streams += [_Stream(config, None, seed, 0, None),
                    _Stream(config, gammas, seed, 1, min_events)]
    estimates = _estimate(streams, int(trials), int(max_trials))
    # The Wald half-width is symmetric, so the miss keeps the detection's.
    return [SweepCurve(points=tuple(
        SweepPoint(snr_db=snr_db, pmd=replace(det, value=1.0 - det.value), pf=pf_est)
        for snr_db, det in zip(snr_grid_db, dets)))
        for snr_grid_db, [pf_est], dets in zip(grids, estimates[0::2], estimates[1::2])]


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
