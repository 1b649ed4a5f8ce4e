"""Rayleigh-fading channel model: SNR sampling and max-state densities.

The received power under Rayleigh fading is exponentially distributed, so an
"average SNR of gamma_bar" means instantaneous SNR ~ Exp(mean gamma_bar).
All sampling goes through the inverse-CDF transform of uniform draws from a
counter-based Philox stream, which makes every draw reproducible from a
(seed, stream_id) pair regardless of how work is scheduled.
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

    @property
    def db(self) -> float:
        return 10.0 * math.log10(self.gamma_bar)

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


def _as_generator(rng) -> np.random.Generator:
    if isinstance(rng, RandomStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RandomStream or numpy Generator, got {type(rng)!r}")


def draw_snr(avg, gen: np.random.Generator, size=None):
    """Exponential(mean gamma_bar) SNR draws via inverse CDF of uniforms."""
    gamma_bar = AvgSnr.coerce(avg).gamma_bar
    u = gen.random(size)
    # u in [0, 1), so 1-u in (0, 1] and the log is finite.
    if size is None:
        return -gamma_bar * np.log1p(-u)
    # Same operations in place, so a block holds one array instead of three.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    u *= -gamma_bar
    return u


def sample_rayleigh_snr(avg, rng) -> float:
    """One instantaneous-SNR draw under Rayleigh fading."""
    return float(draw_snr(avg, _as_generator(rng)))


def sample_states(avg, q: int, rng) -> np.ndarray:
    """Q i.i.d. per-state SNR realizations gamma_1..gamma_Q."""
    if int(q) != q or q < 1:
        raise ValueError(f"state count Q must be an integer >= 1, got {q!r}")
    return draw_snr(avg, _as_generator(rng), size=int(q))


def max_state_pdf_exact(gamma_max, avg, q: int):
    """Density of the maximum of Q i.i.d. exponential SNR realizations.

    (Q/gamma_bar) e^{-g/gamma_bar} (1 - e^{-g/gamma_bar})^{Q-1}, normalized
    for every Q.
    """
    if int(q) != q or q < 1:
        raise ValueError(f"state count Q must be an integer >= 1, got {q!r}")
    gamma_bar = AvgSnr.coerce(avg).gamma_bar
    g = np.asarray(gamma_max, dtype=float)
    if np.any(g < 0.0):
        raise ValueError("SNR value must be >= 0")
    t = g / gamma_bar
    out = (q / gamma_bar) * np.exp(-t) * (-np.expm1(-t)) ** (q - 1)
    return float(out) if np.isscalar(gamma_max) else out


def max_state_pdf_dominant(gamma_max, avg, q: int):
    """Large-gamma_bar dominant form (Q/gamma_bar^Q) e^{-g/gamma_bar} g^{Q-1}.

    Not normalized in general; it is the leading behaviour used inside the
    selection-scheme averaging integral, kept available behind a flag.
    """
    if int(q) != q or q < 1:
        raise ValueError(f"state count Q must be an integer >= 1, got {q!r}")
    gamma_bar = AvgSnr.coerce(avg).gamma_bar
    g = np.asarray(gamma_max, dtype=float)
    if np.any(g < 0.0):
        raise ValueError("SNR value must be >= 0")
    if q == 1:
        out = np.exp(-g / gamma_bar) / gamma_bar
    else:
        with np.errstate(divide="ignore"):
            log_g = np.where(g > 0.0, np.log(np.where(g > 0.0, g, 1.0)), -np.inf)
        out = np.exp(math.log(q) - q * math.log(gamma_bar) - g / gamma_bar
                     + (q - 1) * log_g)
    return float(out) if np.isscalar(gamma_max) else out
