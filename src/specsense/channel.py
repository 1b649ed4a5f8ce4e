"""Rayleigh-fading channel model: SNR sampling.

The received power under Rayleigh fading is exponentially distributed, so an
"average SNR of gamma_bar" means instantaneous SNR ~ Exp(mean gamma_bar).
A fade is gamma_bar times a standard exponential, drawn by numpy's
ziggurat.  The best of Q independent such states has the CDF
(1 - e^{-x/gamma_bar})^Q, so it is drawn by inverse CDF from one uniform
instead of Q fades.  Every generator is an SFC64 seeded from
``SeedSequence(seed, spawn_key=(stream_id, *path))``, which makes every draw
reproducible from (seed, stream_id, path) regardless of how work is
scheduled.
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
    """Reproducible random substream.

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
        return np.random.Generator(np.random.SFC64(ss))


def draw_snr(avg, gen: np.random.Generator, size, out=None) -> np.ndarray:
    """Exponential(mean gamma_bar) SNR draws: gamma_bar * standard_exponential.

    With ``out`` (a float64 array of shape ``size``) the draws are written
    into it and it is returned, so a caller can reuse one array.
    """
    gamma_bar = AvgSnr.coerce(avg).gamma_bar
    x = gen.standard_exponential(size, out=out)
    x *= gamma_bar  # in place, so a block holds one array instead of two
    return x


def draw_best_snr(avg, gen: np.random.Generator, size, q: int, out=None) -> np.ndarray:
    """The largest of q Exponential(mean gamma_bar) SNRs, one uniform per draw.

    Inverse CDF of (1 - e^{-x/gamma_bar})^q: x = -gamma_bar log(1 - u^{1/q}),
    with 1 - u^{1/q} formed as -expm1(log(u) / q) so that it keeps its
    relative precision as u^{1/q} nears 1.  ``out`` is as for ``draw_snr``.
    """
    gamma_bar = AvgSnr.coerce(avg).gamma_bar
    u = gen.random(size, out=out)
    # u = 0 gives log(u) = -inf and then x = 0, the law's lower end.
    with np.errstate(divide="ignore"):
        np.log(u, out=u)
    u /= q
    np.expm1(u, out=u)
    np.negative(u, out=u)
    np.log(u, out=u)
    # 0 - log(.) rather than -log(.): u = 0 then gives +0, not -0, so a zero
    # fade keeps its sign through a product or a division.
    np.subtract(0.0, u, out=u)
    u *= gamma_bar
    return u
