"""Rayleigh-fading channel model: SNR sampling.

The received power under Rayleigh fading is exponentially distributed, so an
"average SNR of gamma_bar" means instantaneous SNR ~ Exp(mean gamma_bar).
The best of Q independent such states has the CDF (1 - e^{-x/gamma_bar})^Q,
so it is drawn from one uniform instead of Q.  All sampling goes through the
inverse-CDF transform of uniform draws from a counter-based Philox stream,
which makes every draw reproducible from a (seed, stream_id) pair regardless
of how work is scheduled.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AvgSnr:
    """Average linear SNR gamma_bar > 0 of the faded channel."""

    gamma_bar: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma_bar) and self.gamma_bar > 0.0):
            raise ValueError(f"average SNR must be finite and > 0, got {self.gamma_bar!r}")

    @classmethod
    def from_db(cls, snr_db: float) -> "AvgSnr":
        return cls(10.0 ** (snr_db / 10.0))

    @classmethod
    def coerce(cls, value) -> "AvgSnr":
        if isinstance(value, AvgSnr):
            return value
        return cls(float(value))


@dataclass(frozen=True)
class RandomStream:
    """Reproducible counter-based random substream.

    Identical (seed, stream_id, path) always yields the identical sample
    sequence.  ``substream`` derives statistically independent child streams
    (used by the Monte Carlo engine for per-block draws), and ``generator``
    returns a fresh numpy Generator positioned at the stream origin.
    """

    seed: int
    stream_id: int = 0
    path: tuple = ()

    def substream(self, *indices: int) -> "RandomStream":
        return dataclasses.replace(self, path=self.path + tuple(int(i) for i in indices))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=int(self.seed),
                                    spawn_key=(int(self.stream_id),) + self.path)
        return np.random.Generator(np.random.Philox(key=ss.generate_state(2, np.uint64)))


def draw_snr(avg, gen: np.random.Generator, size) -> np.ndarray:
    """Exponential(mean gamma_bar) SNR draws via inverse CDF of uniforms."""
    gamma_bar = AvgSnr.coerce(avg).gamma_bar
    u = gen.random(size)
    # u in [0, 1), so 1-u in (0, 1] and the log is finite.  The operations
    # run in place, so a block holds one array instead of three.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u *= -gamma_bar
    return u


def draw_best_snr(avg, gen: np.random.Generator, size, q: int) -> np.ndarray:
    """The largest of q Exponential(mean gamma_bar) SNRs, one uniform per draw.

    Inverse CDF of (1 - e^{-x/gamma_bar})^q: x = -gamma_bar log(1 - u^{1/q}),
    with 1 - u^{1/q} formed as -expm1(log(u) / q) so that it keeps its
    relative precision as u^{1/q} nears 1.
    """
    gamma_bar = AvgSnr.coerce(avg).gamma_bar
    u = gen.random(size)
    # u = 0 gives log(u) = -inf and then x = 0, the law's lower end.
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
    u /= q
    np.expm1(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    u *= -gamma_bar
    return u
