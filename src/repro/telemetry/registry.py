"""The metric-name registry: every metric declared in one place.

Metric names used to be free-form strings passed to
:class:`~repro.telemetry.metrics.MetricsHub` -- a typo silently created a
parallel series that every query missed (the failure mode the ROADMAP
flagged).  This module declares the canonical names, their kind, and
their expected label keys; the hub checks every handle it interns
against :data:`DEFAULT_REGISTRY` (an undeclared name, a kind mismatch or
an undeclared label key raises :class:`~repro.errors.TelemetryError`),
and the ursalint rule ``TEL001`` checks string literals at lint time so
typos never reach a run.  :data:`ALERT_REGISTRY` is the same kind of
table for the SLO monitor's alert names (rule ``TEL002``).

A series that nothing reads is not declared: adding a metric is a
one-line :data:`DEFAULT_REGISTRY` entry plus the query that needs it.
The two cluster gauges are the exception; see their entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Iterable, Iterator, TypeVar

__all__ = [
    "ALERT_REGISTRY",
    "AlertSpec",
    "DEFAULT_REGISTRY",
    "MetricRegistry",
    "MetricSpec",
    "Registry",
]


#: Valid metric kinds (the three aggregation families of the hub).
KINDS = ("latency", "counter", "gauge")


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric: name, kind, and expected label keys.

    ``labels`` lists every label key a series of this metric may carry;
    a series may use any *subset* (e.g. ``requests_total`` may be
    interned per-service or client-level), but never a key outside the
    set.
    """

    name: str
    kind: str
    labels: tuple[str, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"metric kind must be one of {KINDS}, got {self.kind!r}"
            )
        object.__setattr__(self, "labels", tuple(self.labels))


@dataclass(frozen=True)
class AlertSpec:
    """Declaration of one alert series: name, severity, and meaning."""

    name: str
    severity: str = "page"
    description: str = ""


SpecT = TypeVar("SpecT", MetricSpec, AlertSpec)


class Registry(Generic[SpecT]):
    """An immutable-by-convention name -> spec table.

    The one container for both declaration tables: metrics
    (:class:`MetricRegistry`, which adds the write check) and alerts
    (:data:`ALERT_REGISTRY`).
    """

    def __init__(self, specs: Iterable[SpecT] = ()) -> None:
        self._specs: dict[str, SpecT] = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: SpecT) -> SpecT:
        """Add a declaration; re-registering an identical spec is a no-op."""
        existing = self._specs.get(spec.name)
        if existing is not None and existing != spec:
            raise ValueError(f"{spec.name!r} already registered as {existing}")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> SpecT | None:
        return self._specs.get(name)

    def names(self) -> list[str]:
        return sorted(self._specs)

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[SpecT]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)


class MetricRegistry(Registry[MetricSpec]):
    """The metric table: a :class:`Registry` that validates series."""

    def check(
        self,
        name: str,
        kind: str,
        label_keys: Iterable[str],
    ) -> str | None:
        """Validate one series; returns a problem description or ``None``."""
        spec = self._specs.get(name)
        if spec is None:
            return (
                f"metric {name!r} is not declared in the registry "
                f"(known: {', '.join(self.names()) or 'none'})"
            )
        if spec.kind != kind:
            return (
                f"metric {name!r} is declared as a {spec.kind} but was "
                f"written as a {kind}"
            )
        extra = sorted(set(label_keys) - set(spec.labels))
        if extra:
            return (
                f"metric {name!r} written with undeclared label keys "
                f"{extra}; declared: {sorted(spec.labels)}"
            )
        return None


#: Every metric the reproduction records, in one table.  The ursalint
#: rule TEL001 and the hub's runtime check both read this.
DEFAULT_REGISTRY = MetricRegistry(
    [
        MetricSpec(
            "request_latency",
            "latency",
            ("request",),
            "end-to-end request latency (call-tree completion)",
        ),
        MetricSpec(
            "service_latency",
            "latency",
            ("request", "service"),
            "per-service response time minus nested-RPC downstream waits",
        ),
        MetricSpec(
            "requests_total",
            "counter",
            ("request", "service"),
            "request arrivals at a service",
        ),
        MetricSpec(
            "client_requests_total",
            "counter",
            ("request",),
            "client-level request arrivals",
        ),
        MetricSpec(
            "cpu_utilization",
            "gauge",
            ("service",),
            "per-service CPU utilisation in [0, 1]",
        ),
        MetricSpec(
            "cpu_allocated",
            "gauge",
            ("service",),
            "per-service total allocated CPUs",
        ),
        MetricSpec(
            "queue_depth",
            "gauge",
            ("service",),
            "per-service pending requests (MQ backlog + thread-queue waiters)",
        ),
        # The cluster gauges are read by no production query, but the
        # process sampling them adds engine events that every pinned
        # RunDigest counts; they go once digests stop counting events.
        MetricSpec(
            "cluster_allocated_cpus",
            "gauge",
            (),
            "CPUs reserved across all deployments on the cluster",
        ),
        MetricSpec(
            "cluster_free_cpus",
            "gauge",
            (),
            "schedulable CPUs remaining on the cluster",
        ),
    ]
)


#: Every alert series the SLO monitor emits, in one table (TEL002 and
#: the monitor's runtime check both read this).
ALERT_REGISTRY: Registry[AlertSpec] = Registry(
    [
        AlertSpec(
            "slo-burn-rate",
            "page",
            "fast AND slow window burn rates above the paging threshold",
        ),
        AlertSpec(
            "slo-budget-exhausted",
            "page",
            "cumulative violations exceed the class's whole error budget",
        ),
    ]
)
