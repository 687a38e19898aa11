"""Empirical latency distributions and percentile utilities.

Ursa's performance model operates on *latency distributions*: per-service
latency percentiles recorded at each profiled load-per-replica threshold
(the ``D_i`` matrices of §IV).  This module provides the empirical
distribution type those matrices are built from, with the percentile
semantics the paper uses (the x-th percentile latency ``t(x)``).
"""

from __future__ import annotations

import bisect
import math
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

__all__ = [
    "EmpiricalDistribution",
    "percentile",
    "DEFAULT_PERCENTILE_GRID",
]

#: Percentile grid used when discretising latency distributions for the MIP
#: (the ``P = [p_1 .. p_h]`` vector of §IV).  Dense near the tail because
#: most SLAs bind at high percentiles, but with mid-grid points (75, 85):
#: a *median* end-to-end SLA over an n-stage pipeline spends its residual
#: budget in ~(50/n)-point chunks, which only mid percentiles can provide.
DEFAULT_PERCENTILE_GRID: tuple[float, ...] = (
    50.0,
    75.0,
    85.0,
    90.0,
    95.0,
    99.0,
    99.5,
    99.9,
)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of an ascending-sorted sequence.

    Uses the nearest-rank-with-interpolation definition (linear between
    closest ranks), matching ``numpy.percentile``'s default.  ``q`` is in
    ``[0, 100]``.
    """
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    n = len(sorted_values)
    if n == 1:
        return float(sorted_values[0])
    rank = (q / 100.0) * (n - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return float(sorted_values[lo])
    lower = float(sorted_values[lo])
    upper = float(sorted_values[hi])
    if lower == upper:
        # Skip the lerp between equal ranks: for subnormal values the
        # weighted terms underflow to 0.0, dropping the result below min.
        return lower
    frac = rank - lo
    return float(lower * (1.0 - frac) + upper * frac)


@dataclass
class EmpiricalDistribution:
    """A sample-based latency distribution.

    Stores raw observations (sorted lazily) and answers percentile queries
    with the paper's ``t(x)`` semantics.  Distributions are mergeable so
    that per-window distributions can be aggregated over an experiment.

    Observations are packed in an ``array("d")``: 8 bytes each, where a
    list of Python floats costs 32.  A run's telemetry keeps every
    request's latency until the run ends, so this is most of what a long
    run's memory grows by.  Sorting goes through :func:`sorted` (stable,
    so equal values such as ``0.0`` and ``-0.0`` keep their order) and
    every result is the one a list of floats would give.
    """

    _values: array[float] = field(default_factory=lambda: array("d"))
    _sorted: bool = True

    @classmethod
    def from_samples(cls, samples: Iterable[float]) -> "EmpiricalDistribution":
        dist = cls()
        for sample in samples:
            dist.add(sample)
        return dist

    def add(self, value: float) -> None:
        """Record one observation."""
        if value < 0:
            raise ValueError(f"latency observations must be >= 0, got {value}")
        values = self._values
        if self._sorted and values and value < values[-1]:
            self._sorted = False
        values.append(value)

    def merge(self, other: "EmpiricalDistribution") -> "EmpiricalDistribution":
        """A new distribution pooling both sample sets."""
        return EmpiricalDistribution.pooled((self, other))

    @classmethod
    def pooled(
        cls, parts: Iterable["EmpiricalDistribution"]
    ) -> "EmpiricalDistribution":
        """A new, sorted distribution pooling every part's samples.

        One concatenation and one sort, whatever the number of parts;
        the result equals merging them pairwise in order.
        """
        values = array("d")
        for part in parts:
            values += part._values
        return cls(array("d", sorted(values)))

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._values = array("d", sorted(self._values))
            self._sorted = True

    def __len__(self) -> int:
        return len(self._values)

    def __bool__(self) -> bool:
        return bool(self._values)

    @property
    def count(self) -> int:
        return len(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            raise ValueError("mean of empty distribution")
        return sum(self._values) / len(self._values)

    @property
    def max(self) -> float:
        if not self._values:
            raise ValueError("max of empty distribution")
        self._ensure_sorted()
        return self._values[-1]

    @property
    def min(self) -> float:
        if not self._values:
            raise ValueError("min of empty distribution")
        self._ensure_sorted()
        return self._values[0]

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile latency ``t(q)``."""
        self._ensure_sorted()
        return percentile(self._values, q)

    def percentiles(self, grid: Sequence[float]) -> list[float]:
        """Vector of percentiles on ``grid`` (a row of a ``D_i`` matrix)."""
        self._ensure_sorted()
        return [percentile(self._values, q) for q in grid]

    def fraction_above(self, threshold: float) -> float:
        """Fraction of observations strictly above ``threshold``.

        This is the SLA violation rate when ``threshold`` is the SLA target
        and the distribution holds end-to-end request latencies.
        """
        if not self._values:
            raise ValueError("fraction_above of empty distribution")
        self._ensure_sorted()
        idx = bisect.bisect_right(self._values, threshold)
        return (len(self._values) - idx) / len(self._values)

    def cdf(self, value: float) -> float:
        """Empirical CDF at ``value``."""
        if not self._values:
            raise ValueError("cdf of empty distribution")
        self._ensure_sorted()
        return bisect.bisect_right(self._values, value) / len(self._values)

    def samples(self) -> list[float]:
        """A sorted copy of the observations."""
        self._ensure_sorted()
        return list(self._values)

    def __repr__(self) -> str:
        if not self._values:
            return "EmpiricalDistribution(empty)"
        return (
            f"EmpiricalDistribution(n={self.count}, mean={self.mean:.3g}, "
            f"p99={self.percentile(99):.3g})"
        )
