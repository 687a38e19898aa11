"""Windowed metrics hub -- the Prometheus substitute.

Simulated components push raw measurements into a :class:`MetricsHub`;
the hub aggregates them into fixed time windows (default one minute,
matching the paper's once-per-minute sampling).  Three metric kinds:

* **latency** -- per-window empirical latency distributions
  (request/response times keyed by service and request class);
* **counter** -- monotonically accumulated counts per window (request
  arrivals);
* **gauge** -- point-in-time samples averaged per window (CPU utilisation,
  allocated CPUs, queue depths).

Queries aggregate over window ranges, mirroring the PromQL-style queries
Ursa's controllers issue (latency percentile over the last N minutes,
request rate, mean CPU utilisation).

Writes go only through interned series handles (see
docs/performance.md): :meth:`MetricsHub.latency_handle`,
:meth:`MetricsHub.counter_handle` and :meth:`MetricsHub.gauge_handle`
canonicalise the labels, run the registry check and resolve the series
once, and return a small bound writer (:class:`LatencyHandle`,
:class:`CounterHandle`, :class:`GaugeHandle`); each observation through
a handle touches only the per-window dict.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from math import floor as _floor
from typing import Any

from repro.errors import TelemetryError
from repro.stats.distributions import EmpiricalDistribution
from repro.telemetry.registry import DEFAULT_REGISTRY

__all__ = [
    "CounterHandle",
    "GaugeHandle",
    "LabelSet",
    "LatencyHandle",
    "MetricsHub",
    "labels_key",
]

LabelSet = tuple[tuple[str, str], ...]
Labels = Mapping[str, str] | LabelSet | None


class _Handle:
    """Interned writer for one (metric, label-set) series.

    Holds the clock, the window length and the resolved per-window dict,
    so a write skips the name/label lookups and the registry check.
    """

    __slots__ = ("_clock", "_window_s", "_series")

    def __init__(
        self,
        clock: Callable[[], float],
        window_s: float,
        series: dict[int, Any],
    ) -> None:
        self._clock = clock
        self._window_s = window_s
        self._series = series


class LatencyHandle(_Handle):
    """Writer for one latency series (:meth:`MetricsHub.latency_handle`)."""

    __slots__ = ()

    def record(self, value: float) -> None:
        """Record one latency observation in the current window."""
        window = int(_floor(self._clock() / self._window_s))
        series = self._series
        dist = series.get(window)
        if dist is None:
            dist = series[window] = EmpiricalDistribution()
        dist.add(value)


class CounterHandle(_Handle):
    """Writer for one counter series (:meth:`MetricsHub.counter_handle`)."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the counter in the current window."""
        if amount < 0:
            raise TelemetryError(f"counter increment must be >= 0, got {amount}")
        window = int(_floor(self._clock() / self._window_s))
        series = self._series
        series[window] = series.get(window, 0.0) + amount


class GaugeHandle(_Handle):
    """Writer for one gauge series (:meth:`MetricsHub.gauge_handle`)."""

    __slots__ = ()

    def observe(self, value: float) -> None:
        """Record one point-in-time sample in the current window."""
        window = int(_floor(self._clock() / self._window_s))
        series = self._series
        samples = series.get(window)
        if samples is None:
            samples = series[window] = []
        samples.append(value)


def labels_key(labels: Labels) -> LabelSet:
    """Canonical hashable form of a label mapping or label tuple.

    Every input is sorted, so a tuple in any key order names the same
    series as the equivalent dict.
    """
    if not labels:
        return ()
    pairs = labels.items() if isinstance(labels, Mapping) else labels
    return tuple(sorted((str(k), str(v)) for k, v in pairs))


class MetricsHub:
    """Time-windowed metric aggregation for one simulation.

    The hub needs the current simulation time on every write; callers pass
    a clock function at construction, usually ``env.clock()``, which
    reads the simulated time without running a Python frame.

    Every series is validated against
    :data:`~repro.telemetry.registry.DEFAULT_REGISTRY` when a handle
    first creates it: an undeclared name, a kind mismatch, or an
    undeclared label key raises :class:`~repro.errors.TelemetryError`.
    Writes through a handle pay nothing for the check.
    """

    def __init__(self, clock: Callable[[], float], window_s: float = 60.0) -> None:
        if window_s <= 0:
            raise TelemetryError(f"window must be > 0, got {window_s}")
        self._clock = clock
        self.window_s = float(window_s)
        # metric name -> labels -> window index -> aggregate
        self._latency: dict[str, dict[LabelSet, dict[int, EmpiricalDistribution]]] = {}
        self._counters: dict[str, dict[LabelSet, dict[int, float]]] = {}
        self._gauges: dict[str, dict[LabelSet, dict[int, list[float]]]] = {}

    def _series(
        self,
        kind: str,
        table: dict[str, dict[LabelSet, dict[int, Any]]],
        name: str,
        labels: Labels,
    ) -> dict[int, Any]:
        """Get-or-create the per-window dict for one (name, labels) series.

        The registry check runs exactly when the series is created.
        """
        key = labels_key(labels)
        by_labels = table.get(name)
        if by_labels is None:
            by_labels = table[name] = {}
        series = by_labels.get(key)
        if series is None:
            problem = DEFAULT_REGISTRY.check(name, kind, (k for k, _ in key))
            if problem is not None:
                raise TelemetryError(problem)
            series = by_labels[key] = {}
        return series

    # -- interned handles (the write API) ---------------------------------
    def latency_handle(self, name: str, labels: Labels = None) -> LatencyHandle:
        """Interned writer for one latency series."""
        series = self._series("latency", self._latency, name, labels)
        return LatencyHandle(self._clock, self.window_s, series)

    def counter_handle(self, name: str, labels: Labels = None) -> CounterHandle:
        """Interned writer for one counter series."""
        series = self._series("counter", self._counters, name, labels)
        return CounterHandle(self._clock, self.window_s, series)

    def gauge_handle(self, name: str, labels: Labels = None) -> GaugeHandle:
        """Interned writer for one gauge series."""
        series = self._series("gauge", self._gauges, name, labels)
        return GaugeHandle(self._clock, self.window_s, series)

    # -- reads ------------------------------------------------------------
    def _window_range(self, t0: float, t1: float) -> range:
        if t1 < t0:
            raise TelemetryError(f"empty query interval [{t0}, {t1}]")
        first = int(math.floor(t0 / self.window_s))
        last = int(math.ceil(t1 / self.window_s))
        return range(first, max(last, first + 1))

    def latency_distribution(
        self,
        name: str,
        t0: float,
        t1: float,
        labels: Labels = None,
    ) -> EmpiricalDistribution:
        """Pooled latency distribution for ``name`` over ``[t0, t1)``.

        The windows are pooled in one concatenation and one sort, in
        window order (see :meth:`EmpiricalDistribution.pooled`).
        """
        series = self._latency.get(name, {}).get(labels_key(labels), {})
        return EmpiricalDistribution.pooled(
            series[window]
            for window in self._window_range(t0, t1)
            if window in series
        )

    def latency_percentile(
        self,
        name: str,
        q: float,
        t0: float,
        t1: float,
        labels: Labels = None,
        default: float | None = None,
    ) -> float:
        """``q``-th percentile of ``name`` over ``[t0, t1)``.

        Returns ``default`` when no observations exist (if provided),
        otherwise raises :class:`TelemetryError`.
        """
        dist = self.latency_distribution(name, t0, t1, labels)
        if not dist:
            if default is not None:
                return default
            raise TelemetryError(
                f"no latency samples for {name}{dict(labels_key(labels))} "
                f"in [{t0}, {t1})"
            )
        return dist.percentile(q)

    def counter_total(
        self,
        name: str,
        t0: float,
        t1: float,
        labels: Labels = None,
    ) -> float:
        """Sum of counter increments over ``[t0, t1)``.

        Buckets partially covered by the interval contribute
        proportionally (assuming uniform arrivals within a bucket), so
        rates over intervals that do not align with bucket boundaries stay
        accurate.
        """
        series = self._counters.get(name, {}).get(labels_key(labels), {})
        total = 0.0
        for w in self._window_range(t0, t1):
            count = series.get(w, 0.0)
            if not count:
                continue
            bucket_start = w * self.window_s
            bucket_end = bucket_start + self.window_s
            # The intersection of [t0, t1) with a window-sized bucket can
            # never exceed window_s, so the fraction below is already in
            # [0, 1] -- no clamp needed.
            overlap = min(t1, bucket_end) - max(t0, bucket_start)
            if overlap <= 0:
                continue
            total += count * (overlap / self.window_s)
        return total

    def counter_rate(
        self,
        name: str,
        t0: float,
        t1: float,
        labels: Labels = None,
    ) -> float:
        """Average per-second rate of a counter over ``[t0, t1)``."""
        if t1 <= t0:
            raise TelemetryError(f"rate over empty interval [{t0}, {t1})")
        return self.counter_total(name, t0, t1, labels) / (t1 - t0)

    def gauge_mean(
        self,
        name: str,
        t0: float,
        t1: float,
        labels: Labels = None,
        default: float | None = None,
    ) -> float:
        """Mean of gauge samples over ``[t0, t1)``."""
        series = self._gauges.get(name, {}).get(labels_key(labels), {})
        samples: list[float] = []
        for window in self._window_range(t0, t1):
            samples.extend(series.get(window, ()))
        if not samples:
            if default is not None:
                return default
            raise TelemetryError(
                f"no gauge samples for {name}{dict(labels_key(labels))} "
                f"in [{t0}, {t1})"
            )
        return sum(samples) / len(samples)

    def gauge_series(
        self,
        name: str,
        t0: float,
        t1: float,
        labels: Labels = None,
    ) -> list[tuple[float, float]]:
        """Per-window (window start time, mean value) pairs over ``[t0, t1)``."""
        series = self._gauges.get(name, {}).get(labels_key(labels), {})
        out: list[tuple[float, float]] = []
        for window in self._window_range(t0, t1):
            samples = series.get(window)
            if samples:
                out.append((window * self.window_s, sum(samples) / len(samples)))
        return out
