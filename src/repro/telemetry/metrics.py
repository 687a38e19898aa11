"""Windowed metrics hub -- the Prometheus substitute.

Simulated components push raw measurements into a :class:`MetricsHub`;
the hub aggregates them into fixed time windows (default one minute,
matching the paper's once-per-minute sampling).  Three metric kinds:

* **latency** -- per-window empirical latency distributions
  (request/response times keyed by service and request class);
* **counter** -- monotonically accumulated counts per window (request
  arrivals, SLA violations);
* **gauge** -- point-in-time samples averaged per window (CPU utilisation,
  replica counts, queue depths).

Queries aggregate over window ranges, mirroring the PromQL-style queries
Ursa's controllers issue (latency percentile over the last N minutes,
request rate, mean CPU utilisation).

Hot-path writers use interned series handles (see
docs/performance.md): :meth:`MetricsHub.latency_handle` /
:meth:`MetricsHub.counter_handle` resolve the name/label lookup and
registry check once and return a small bound writer
(:class:`LatencyHandle` / :class:`CounterHandle`); per-observation
writes through a handle touch only the per-window dict.  Handles and
the string-keyed write methods share the same underlying series, so
queries see both.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Mapping
from math import floor as _floor

from repro.errors import TelemetryError
from repro.stats.distributions import EmpiricalDistribution
from repro.telemetry.registry import DEFAULT_REGISTRY, MetricRegistry

__all__ = [
    "CounterHandle",
    "LabelSet",
    "LatencyHandle",
    "MetricsHub",
    "labels_key",
]

LabelSet = tuple[tuple[str, str], ...]


class LatencyHandle:
    """Interned writer for one (metric, label-set) latency series.

    Created by :meth:`MetricsHub.latency_handle`; holds the resolved
    per-window dict so :meth:`record` skips the name/label lookups and
    the (first-write) registry check entirely.
    """

    __slots__ = ("_clock", "_window_s", "_series")

    def __init__(
        self,
        clock: Callable[[], float],
        window_s: float,
        series: dict[int, EmpiricalDistribution],
    ) -> None:
        self._clock = clock
        self._window_s = window_s
        self._series = series

    def record(self, value: float) -> None:
        """Record one latency observation (same as hub.record_latency)."""
        # Same window arithmetic as MetricsHub._window, inlined.
        window = int(_floor(self._clock() / self._window_s))
        series = self._series
        dist = series.get(window)
        if dist is None:
            dist = series[window] = EmpiricalDistribution()
        dist.add(value)


class CounterHandle:
    """Interned writer for one (metric, label-set) counter series."""

    __slots__ = ("_clock", "_window_s", "_series")

    def __init__(
        self,
        clock: Callable[[], float],
        window_s: float,
        series: dict[int, float],
    ) -> None:
        self._clock = clock
        self._window_s = window_s
        self._series = series

    def inc(self, amount: float = 1.0) -> None:
        """Increment the counter (same as hub.inc_counter)."""
        if amount < 0:
            raise TelemetryError(f"counter increment must be >= 0, got {amount}")
        window = int(_floor(self._clock() / self._window_s))
        series = self._series
        series[window] = series.get(window, 0.0) + amount


def labels_key(labels: Mapping[str, str] | LabelSet | None) -> LabelSet:
    """Canonical hashable form of a label mapping.

    Accepts an already-canonical tuple unchanged, so hot paths can
    precompute their label sets once and skip the sort.
    """
    if not labels:
        return ()
    if isinstance(labels, tuple):
        return labels
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsHub:
    """Time-windowed metric aggregation for one simulation.

    The hub needs the current simulation time on every write; callers pass
    a clock function (usually ``lambda: env.now``) at construction.

    Writes are validated against a
    :class:`~repro.telemetry.registry.MetricRegistry`: an undeclared name,
    a kind mismatch, or an undeclared label key raises
    :class:`~repro.errors.TelemetryError`.  Validation happens only when
    a new series is created, so the per-observation hot path pays
    nothing.  Pass ``registry=None`` to disable checking (ad-hoc hubs in
    tests).
    """

    def __init__(
        self,
        clock,
        window_s: float = 60.0,
        registry: MetricRegistry | None = DEFAULT_REGISTRY,
    ) -> None:
        if window_s <= 0:
            raise TelemetryError(f"window must be > 0, got {window_s}")
        self._clock = clock
        self.window_s = float(window_s)
        self.registry = registry
        # metric name -> labels -> window index -> aggregate
        self._latency: dict[str, dict[LabelSet, dict[int, EmpiricalDistribution]]] = {}
        self._counters: dict[str, dict[LabelSet, dict[int, float]]] = {}
        self._gauges: dict[str, dict[LabelSet, dict[int, list[float]]]] = {}

    def _check(self, kind: str, name: str, labels: LabelSet) -> None:
        """Validate a new series against the registry (first write only)."""
        if self.registry is None:
            return
        problem = self.registry.check(name, kind, (k for k, _ in labels))
        if problem is not None:
            raise TelemetryError(problem)

    # -- writes -----------------------------------------------------------
    def _window(self, at: float | None = None) -> int:
        t = self._clock() if at is None else at
        return int(math.floor(t / self.window_s))

    def _series(self, kind: str, table: dict, name: str, key: LabelSet) -> dict:
        """Get-or-create the per-window dict for one (name, labels) series.

        Registry validation runs exactly when the series is created --
        identical timing to the pre-handle first-write check.
        """
        by_labels = table.get(name)
        if by_labels is None:
            by_labels = table[name] = {}
        series = by_labels.get(key)
        if series is None:
            self._check(kind, name, key)
            series = by_labels[key] = {}
        return series

    def record_latency(
        self,
        name: str,
        value: float,
        labels: Mapping[str, str] | LabelSet | None = None,
    ) -> None:
        """Record one latency observation for metric ``name``."""
        window = self._window()
        series = self._series("latency", self._latency, name, labels_key(labels))
        dist = series.get(window)
        if dist is None:
            dist = series[window] = EmpiricalDistribution()
        dist.add(value)

    def inc_counter(
        self,
        name: str,
        amount: float = 1.0,
        labels: Mapping[str, str] | LabelSet | None = None,
    ) -> None:
        """Increment counter ``name`` by ``amount`` in the current window."""
        if amount < 0:
            raise TelemetryError(f"counter increment must be >= 0, got {amount}")
        window = self._window()
        series = self._series("counter", self._counters, name, labels_key(labels))
        series[window] = series.get(window, 0.0) + amount

    def observe_gauge(
        self,
        name: str,
        value: float,
        labels: Mapping[str, str] | LabelSet | None = None,
    ) -> None:
        """Record one point-in-time gauge sample."""
        window = self._window()
        series = self._series("gauge", self._gauges, name, labels_key(labels))
        samples = series.get(window)
        if samples is None:
            samples = series[window] = []
        samples.append(value)

    # -- interned handles -------------------------------------------------
    def latency_handle(
        self,
        name: str,
        labels: Mapping[str, str] | LabelSet | None = None,
    ) -> LatencyHandle:
        """Interned writer for one latency series (hot-path callers).

        Resolves the name/label lookup and registry check once; the
        returned :class:`LatencyHandle` writes into the same series that
        :meth:`record_latency` and the query methods use.
        """
        series = self._series("latency", self._latency, name, labels_key(labels))
        return LatencyHandle(self._clock, self.window_s, series)

    def counter_handle(
        self,
        name: str,
        labels: Mapping[str, str] | LabelSet | None = None,
    ) -> CounterHandle:
        """Interned writer for one counter series (hot-path callers)."""
        series = self._series("counter", self._counters, name, labels_key(labels))
        return CounterHandle(self._clock, self.window_s, series)

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
        labels: Mapping[str, str] | LabelSet | None = None,
    ) -> EmpiricalDistribution:
        """Pooled latency distribution for ``name`` over ``[t0, t1)``."""
        series = self._latency.get(name, {}).get(labels_key(labels), {})
        pooled = EmpiricalDistribution()
        for window in self._window_range(t0, t1):
            dist = series.get(window)
            if dist is not None:
                pooled = pooled.merge(dist)
        return pooled

    def latency_percentile(
        self,
        name: str,
        q: float,
        t0: float,
        t1: float,
        labels: Mapping[str, str] | LabelSet | None = None,
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
        labels: Mapping[str, str] | LabelSet | None = None,
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
        labels: Mapping[str, str] | LabelSet | None = None,
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
        labels: Mapping[str, str] | LabelSet | None = None,
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
        labels: Mapping[str, str] | LabelSet | None = None,
    ) -> list[tuple[float, float]]:
        """Per-window (window start time, mean value) pairs over ``[t0, t1)``."""
        series = self._gauges.get(name, {}).get(labels_key(labels), {})
        out = []
        for window in self._window_range(t0, t1):
            samples = series.get(window)
            if samples:
                out.append((window * self.window_s, sum(samples) / len(samples)))
        return out

    def label_sets(self, name: str) -> list[dict[str, str]]:
        """All label combinations seen for metric ``name`` (any kind)."""
        seen: set[LabelSet] = set()
        for table in (self._latency, self._counters, self._gauges):
            seen.update(table.get(name, {}).keys())
        return [dict(ls) for ls in sorted(seen)]
