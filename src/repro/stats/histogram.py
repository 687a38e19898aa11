"""Fixed-size log-spaced histograms with exact quantile-error bounds.

:class:`~repro.stats.distributions.EmpiricalDistribution` keeps every
observation; pickling one across a process boundary ships the full
sample list, which at ``REPRO_SCALE=full`` means megabytes per request
class (see docs/performance.md).  :class:`FixedHistogram` is the
summarised form the experiment layer ships instead: a *fixed*,
deterministic binning -- ``bins`` log-spaced buckets over
``[min_value, max_value)`` plus underflow/overflow -- so any two
histograms built with the same parameters are mergeable, byte-identical
for identical inputs, and O(bins) in memory no matter how many samples
they absorb.  A histogram is built with :meth:`FixedHistogram.from_samples`
or filled with :meth:`FixedHistogram.record`, and shards are pooled with
:meth:`FixedHistogram.merge`.

Error bounds (documented in docs/results_provenance.md):

* **Quantiles.**  A value recorded in bucket ``i`` lies in
  ``[lo_i, lo_i * g)`` where ``g = (max_value / min_value)**(1/bins)``
  is the bucket growth factor.  Quantile queries interpolate inside the
  bucket, so the returned estimate differs from the true sample quantile
  by at most one bucket width: a *relative* error of at most ``g - 1``
  (:attr:`FixedHistogram.relative_error_bound`, ~0.45 % at the
  defaults).  Values in the underflow bucket are bounded by
  ``min_value`` absolutely; overflow estimates are clamped to the exact
  observed maximum, which is tracked separately.
* **Tail fractions.**  :meth:`FixedHistogram.fraction_above`
  interpolates the threshold's bucket linearly, so the absolute error
  is at most the mass of that single bucket -- for SLA violation rates
  this is the fraction of requests whose latency falls within
  ``g - 1`` (~0.45 %) of the threshold itself.

The exact count, sum, minimum and maximum are tracked alongside the
buckets, so ``count``/``mean``/``min``/``max`` are error-free.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

__all__ = [
    "DEFAULT_BINS",
    "DEFAULT_MAX_VALUE",
    "DEFAULT_MIN_VALUE",
    "FixedHistogram",
]

#: Default bucket range: 10 microseconds to 1000 seconds covers every
#: latency the simulation produces (handler work is milliseconds; a
#: full-scale run is 2000 simulated seconds, so no single request can
#: wait longer than the run).
DEFAULT_MIN_VALUE = 1e-5
DEFAULT_MAX_VALUE = 1e3
#: 4096 log-spaced buckets over 8 decades: growth factor
#: ``(1e8)**(1/4096)`` ~ 1.0045, i.e. quantile estimates within 0.45 %.
DEFAULT_BINS = 4096


class FixedHistogram:
    """Deterministic log-spaced histogram over ``[min_value, max_value)``.

    Bucket ``i`` (``0 <= i < bins``) covers
    ``[min_value * g**i, min_value * g**(i+1))`` with
    ``g = (max_value / min_value)**(1/bins)``.  Values below
    ``min_value`` land in the underflow bucket (index ``-1``), values at
    or above ``max_value`` in the overflow bucket (index ``bins``).
    Buckets are stored sparsely, so pickles scale with the number of
    *occupied* buckets (bounded by ``bins + 2``), not the sample count.
    """

    __slots__ = (
        "min_value",
        "max_value",
        "bins",
        "_log_min",
        "_log_growth",
        "_counts",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(
        self,
        min_value: float = DEFAULT_MIN_VALUE,
        max_value: float = DEFAULT_MAX_VALUE,
        bins: int = DEFAULT_BINS,
    ) -> None:
        if min_value <= 0:
            raise ValueError(f"min_value must be > 0, got {min_value}")
        if max_value <= min_value:
            raise ValueError(
                f"max_value must be > min_value, got {max_value} <= {min_value}"
            )
        if bins < 1:
            raise ValueError(f"bins must be >= 1, got {bins}")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.bins = int(bins)
        self._log_min = math.log(self.min_value)
        self._log_growth = (
            math.log(self.max_value) - self._log_min
        ) / self.bins
        self._counts: dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = 0.0

    # -- pickling (``__slots__`` classes need explicit state) -----------
    def __getstate__(self) -> tuple[object, ...]:
        return (
            self.min_value,
            self.max_value,
            self.bins,
            self._counts,
            self._count,
            self._sum,
            self._min,
            self._max,
        )

    def __setstate__(self, state: tuple[object, ...]) -> None:
        min_value, max_value, bins, counts, count, total, lo, hi = state
        self.__init__(min_value, max_value, bins)  # type: ignore[arg-type]
        self._counts = dict(counts)  # type: ignore[arg-type]
        self._count = int(count)  # type: ignore[arg-type]
        self._sum = float(total)  # type: ignore[arg-type]
        self._min = float(lo)  # type: ignore[arg-type]
        self._max = float(hi)  # type: ignore[arg-type]

    # -- construction ----------------------------------------------------
    @classmethod
    def from_samples(
        cls,
        samples: Iterable[float],
        min_value: float = DEFAULT_MIN_VALUE,
        max_value: float = DEFAULT_MAX_VALUE,
        bins: int = DEFAULT_BINS,
    ) -> "FixedHistogram":
        hist = cls(min_value=min_value, max_value=max_value, bins=bins)
        for sample in samples:
            hist.record(sample)
        return hist

    @property
    def growth(self) -> float:
        """Per-bucket growth factor ``g`` of the log-spaced edges."""
        return math.exp(self._log_growth)

    @property
    def relative_error_bound(self) -> float:
        """Worst-case relative quantile error, ``g - 1``."""
        return self.growth - 1.0

    def _bucket(self, value: float) -> int:
        if value < self.min_value:
            return -1
        if value >= self.max_value:
            return self.bins
        index = int((math.log(value) - self._log_min) / self._log_growth)
        # Float rounding at an exact edge can land one bucket high/low;
        # clamp into the in-range band (the edges themselves are derived
        # from the same logs, so the error is at most one bucket anyway).
        return min(max(index, 0), self.bins - 1)

    def _edges(self, index: int) -> tuple[float, float]:
        """(inclusive lower, exclusive upper) edge of an in-range bucket."""
        lo = math.exp(self._log_min + index * self._log_growth)
        hi = math.exp(self._log_min + (index + 1) * self._log_growth)
        return lo, hi

    def record(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        if value < 0:
            raise ValueError(f"observations must be >= 0, got {value}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        index = self._bucket(value)
        self._counts[index] = self._counts.get(index, 0) + count
        self._count += count
        self._sum += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "FixedHistogram") -> "FixedHistogram":
        """A new histogram pooling both (requires identical bucketing)."""
        if (self.min_value, self.max_value, self.bins) != (
            other.min_value,
            other.max_value,
            other.bins,
        ):
            raise ValueError("cannot merge histograms with different bucketing")
        merged = FixedHistogram(self.min_value, self.max_value, self.bins)
        for source in (self, other):
            for index, count in source._counts.items():
                merged._counts[index] = merged._counts.get(index, 0) + count
        merged._count = self._count + other._count
        merged._sum = self._sum + other._sum
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged

    # -- exact aggregates -------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise ValueError("mean of empty histogram")
        return self._sum / self._count

    @property
    def min(self) -> float:
        if self._count == 0:
            raise ValueError("min of empty histogram")
        return self._min

    @property
    def max(self) -> float:
        if self._count == 0:
            raise ValueError("max of empty histogram")
        return self._max

    # -- bounded-error queries -------------------------------------------
    def _bucket_span(self, index: int) -> tuple[float, float]:
        """Value range a bucket's samples are known to lie in."""
        if index == -1:
            return min(self._min, self.min_value), self.min_value
        if index == self.bins:
            return self.max_value, max(self._max, self.max_value)
        return self._edges(index)

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile, within :attr:`relative_error_bound`.

        Finds the bucket holding the ``q``-th ranked observation and
        interpolates linearly inside it; the result is clamped to the
        exact observed ``[min, max]``.
        """
        if self._count == 0:
            raise ValueError("percentile of empty histogram")
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        target = (q / 100.0) * self._count
        cumulative = 0
        for index in sorted(self._counts):
            in_bucket = self._counts[index]
            if cumulative + in_bucket >= target:
                lo, hi = self._bucket_span(index)
                frac = (target - cumulative) / in_bucket if in_bucket else 0.0
                estimate = lo + (hi - lo) * frac
                return float(min(max(estimate, self._min), self._max))
            cumulative += in_bucket
        return self._max

    def percentiles(self, grid: Sequence[float]) -> list[float]:
        return [self.percentile(q) for q in grid]

    def fraction_above(self, threshold: float) -> float:
        """Fraction of observations above ``threshold``.

        Exact for thresholds on bucket edges; inside a bucket the
        bucket's mass is split by linear interpolation, so the absolute
        error is at most that single bucket's share of the total count.
        """
        if self._count == 0:
            raise ValueError("fraction_above of empty histogram")
        boundary = self._bucket(threshold)
        above = 0.0
        for index, count in self._counts.items():
            if index > boundary:
                above += count
            elif index == boundary:
                lo, hi = self._bucket_span(index)
                if hi > lo:
                    share = (hi - min(max(threshold, lo), hi)) / (hi - lo)
                else:
                    share = 0.0
                above += count * share
        return float(min(max(above / self._count, 0.0), 1.0))

    def __repr__(self) -> str:
        if self._count == 0:
            return "FixedHistogram(empty)"
        return (
            f"FixedHistogram(n={self._count}, mean={self.mean:.3g}, "
            f"p99~{self.percentile(99):.3g}, "
            f"+/-{self.relative_error_bound:.2%})"
        )
