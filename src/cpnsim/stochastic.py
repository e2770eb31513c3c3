"""Seeded random streams and the integer-valued distribution draws.

Every simulation run owns exactly one :class:`RngStream`; model
expressions and the engine's tie-breaking all draw from it, so a run is
fully determined by the stream's seed path.  Streams are backed by
numpy's PCG64 seeded through ``SeedSequence``, which makes streams of
different seed paths statistically independent and each one
reproducible across processes.

All duration draws return non-negative integers (milliseconds): normal
draws are rounded and clamped at zero, exponential draws rounded.
"""

from __future__ import annotations

import math

import numpy as np

# The largest upper bound uniform_int accepts: numpy draws int64.
UNIFORM_INT_MAX = 2**63 - 1


class RngStream:
    """One reproducible random stream, identified by its seed path."""

    __slots__ = ("seed_key", "_gen")

    def __init__(self, *seed_path: int):
        if not seed_path:
            raise ValueError("seed path must contain at least one integer")
        for part in seed_path:
            if not isinstance(part, int) or part < 0:
                raise ValueError(f"seed path entries must be ints >= 0: {part!r}")
        self.seed_key: tuple[int, ...] = tuple(seed_path)
        self._gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed_key))
        )

    @property
    def label(self) -> str:
        """Compact textual form of the seed path, e.g. ``42:3:17``."""
        return ":".join(str(p) for p in self.seed_key)

    def pick(self, n: int) -> int:
        """Uniform index in [0, n): the engine's tie-break draw."""
        return int(self._gen.integers(n))

    def __repr__(self):
        return f"RngStream({self.label})"


def uniform_int(rng: RngStream, lo: int, hi: int) -> int:
    """Uniform integer in the inclusive interval [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty interval [{lo}, {hi}]")
    return int(rng._gen.integers(lo, hi + 1))


def normal_int(rng: RngStream, mean: float, variance: float) -> int:
    """Normal(mean, variance) draw, rounded and clamped at zero.

    ``variance`` is a variance, not a standard deviation.  Clamping
    introduces no meaningful bias at the parameter ranges the model
    uses (mean >> sqrt(variance)).
    """
    if variance < 0:
        raise ValueError(f"negative variance {variance}")
    draw = rng._gen.normal(mean, math.sqrt(variance))
    return max(0, round(float(draw)))


def exponential_int(rng: RngStream, mean: float) -> int:
    """Exponential(mean) draw, rounded to the nearest integer."""
    if mean <= 0:
        raise ValueError(f"exponential mean must be positive, got {mean}")
    return round(float(rng._gen.exponential(mean)))


def bernoulli(rng: RngStream, p: float) -> bool:
    """True with probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    return bool(rng._gen.random() < p)
