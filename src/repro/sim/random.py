"""Seeded random-variate streams for simulations.

Each simulated component draws from its own named stream so that adding a
component (or reordering draws in one) does not perturb the variates seen by
others -- a standard variance-reduction / reproducibility technique.  Streams
are derived from a root seed with ``numpy``'s ``SeedSequence.spawn``-style
keying, so a (root_seed, name) pair always yields the same stream.

Also provides the service-time distributions used by the microservice
handler cost models (exponential, lognormal parameterised by mean and
coefficient of variation, and weighted mixtures of these).
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "RandomStreams",
    "Distribution",
    "Constant",
    "Exponential",
    "LogNormal",
    "Mixture",
]


class RandomStreams:
    """Factory for named, independent random generators.

    >>> streams = RandomStreams(seed=42)
    >>> rng = streams.stream("service:post")
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating if needed) the generator for ``name``."""
        generator = self._streams.get(name)
        if generator is None:
            key = zlib.crc32(name.encode("utf-8"))
            generator = np.random.default_rng(
                np.random.SeedSequence(entropy=self.seed, spawn_key=(key,))
            )
            self._streams[name] = generator
        return generator

    def fork(self, salt: int) -> "RandomStreams":
        """A new independent stream factory (e.g. per experiment repeat)."""
        return RandomStreams(seed=self.seed * 1_000_003 + salt)


class Distribution:
    """A positive random variate source with a known mean.

    Subclasses implement :meth:`sample`.  ``mean`` is used by capacity
    planning code (e.g. deriving per-request CPU work).
    """

    mean: float

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def scaled(self, factor: float) -> "Distribution":
        """A distribution with the mean scaled by ``factor``.

        Used when a service's business logic changes (Section VII-G: the
        object-detect model swap scales its work distribution down).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(Distribution):
    """Degenerate distribution; useful in tests."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"constant must be >= 0, got {self.value}")

    @property
    def mean(self) -> float:  # type: ignore[override]
        return self.value

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def scaled(self, factor: float) -> "Constant":
        return Constant(self.value * factor)


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential distribution with the given mean."""

    mean: float

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ValueError(f"mean must be > 0, got {self.mean}")

    def sample(self, rng: np.random.Generator) -> float:
        # numpy's own definition of exponential(scale): the same draw,
        # without the scalar-argument broadcast.
        return self.mean * rng.standard_exponential()

    def scaled(self, factor: float) -> "Exponential":
        return Exponential(self.mean * factor)


@dataclass(frozen=True)
class LogNormal(Distribution):
    """Lognormal parameterised by mean and coefficient of variation.

    The workhorse of the handler cost models: service times of text
    processing are low-mean/low-cv, ML inference is high-mean/moderate-cv,
    video transcoding very high mean.
    """

    mean: float
    cv: float = 0.5

    def __post_init__(self) -> None:
        if self.mean <= 0:
            raise ValueError(f"mean must be > 0, got {self.mean}")
        if self.cv <= 0:
            raise ValueError(f"cv must be > 0, got {self.cv}")

    @cached_property
    def _params(self) -> tuple[float, float]:
        """``(mu, sigma)`` of the underlying normal, computed once.

        Cached lazily on the instance, so a distribution unpickled from
        an older cache entry computes it on first use.
        """
        sigma2 = math.log(1.0 + self.cv**2)
        mu = math.log(self.mean) - sigma2 / 2.0
        return mu, math.sqrt(sigma2)

    def sample(self, rng: np.random.Generator) -> float:
        mu, sigma = self._params
        # numpy's own definition of lognormal(mu, sigma), bit for bit:
        # the same standard-normal draw, without the argument broadcast.
        return math.exp(mu + sigma * rng.standard_normal())

    def scaled(self, factor: float) -> "LogNormal":
        return LogNormal(self.mean * factor, self.cv)


class Mixture(Distribution):
    """Weighted mixture of component distributions.

    Used by the backpressure profiler to synthesise a service's aggregate
    handler workload from its per-class handlers weighted by the request
    mix (§III: aggregate loads from different upstream services).
    """

    def __init__(self, components: list[tuple[float, Distribution]]) -> None:
        if not components:
            raise ValueError("mixture needs at least one component")
        total = sum(w for w, _ in components)
        if total <= 0 or any(w < 0 for w, _ in components):
            raise ValueError("mixture weights must be >= 0 and sum > 0")
        self._components = [(w / total, dist) for w, dist in components]

    @property
    def mean(self) -> float:  # type: ignore[override]
        return sum(w * dist.mean for w, dist in self._components)

    def sample(self, rng: np.random.Generator) -> float:
        u = rng.random()
        acc = 0.0
        for weight, dist in self._components:
            acc += weight
            if u <= acc:
                return dist.sample(rng)
        return self._components[-1][1].sample(rng)

    def scaled(self, factor: float) -> "Mixture":
        return Mixture([(w, d.scaled(factor)) for w, d in self._components])
