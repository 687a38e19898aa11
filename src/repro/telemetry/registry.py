"""The metric-name registry: every metric declared in one place.

Metric names used to be free-form strings passed to
:class:`~repro.telemetry.metrics.MetricsHub` -- a typo silently created a
parallel series that every query missed (the failure mode the ROADMAP
flagged).  This module declares the canonical names, their kind, and
their expected label keys; the hub checks writes against the registry
(an undeclared write raises :class:`~repro.errors.TelemetryError`), and
the ursalint rule ``TEL001`` checks string literals at lint time so typos
never reach a run.

Adding a metric is a one-line :data:`DEFAULT_REGISTRY` entry; ad-hoc hubs
(unit tests, scratch scripts) can pass ``registry=None`` to opt out or
build their own :class:`MetricRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "ALERT_REGISTRY",
    "AlertRegistry",
    "AlertSpec",
    "DEFAULT_REGISTRY",
    "MetricRegistry",
    "MetricSpec",
]


#: Valid metric kinds (the three aggregation families of the hub).
KINDS = ("latency", "counter", "gauge")


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric: name, kind, and expected label keys.

    ``labels`` lists every label key a series of this metric may carry;
    a write may use any *subset* (e.g. ``requests_total`` is recorded
    both per-service and client-level), but never a key outside the set.
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


class MetricRegistry:
    """An immutable-by-convention set of :class:`MetricSpec` declarations."""

    def __init__(self, specs: Iterable[MetricSpec] = ()) -> None:
        self._specs: dict[str, MetricSpec] = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: MetricSpec) -> MetricSpec:
        """Add a declaration; re-registering an identical spec is a no-op."""
        existing = self._specs.get(spec.name)
        if existing is not None and existing != spec:
            raise ValueError(
                f"metric {spec.name!r} already registered as {existing}"
            )
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> MetricSpec | None:
        return self._specs.get(name)

    def names(self) -> list[str]:
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[MetricSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def check(
        self,
        name: str,
        kind: str,
        label_keys: Iterable[str],
    ) -> str | None:
        """Validate one write; returns a problem description or ``None``."""
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
            "sla_violations_total",
            "counter",
            ("request",),
            "completed requests whose latency exceeded the class SLA target",
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
        MetricSpec(
            "traces_sampled_total",
            "counter",
            ("request",),
            "requests selected by the tracer's sampling policy",
        ),
        MetricSpec(
            "slo_burn_rate",
            "gauge",
            ("request", "window"),
            "per-class error-budget burn rate over the fast/slow window",
        ),
        MetricSpec(
            "slo_error_budget_consumed",
            "gauge",
            ("request",),
            "cumulative fraction of the class's error budget consumed",
        ),
        MetricSpec(
            "slo_alert_transitions_total",
            "counter",
            ("request", "alert", "state"),
            "SLO alert fire/resolve transitions emitted by the monitor",
        ),
    ]
)


# ----------------------------------------------------------------------
# Alert-name registry (the SLO monitor's twin of the metric table)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AlertSpec:
    """Declaration of one alert series: name, severity, and meaning."""

    name: str
    severity: str = "page"
    description: str = ""


class AlertRegistry:
    """The declared alert names the SLO monitor may emit.

    Same contract as :class:`MetricRegistry` for metric names: every
    alert series is declared once here, the monitor raises on an
    undeclared name at emit time, and the ursalint rule ``TEL002``
    checks :class:`~repro.telemetry.slo.Alert` name literals statically.
    """

    def __init__(self, specs: Iterable[AlertSpec] = ()) -> None:
        self._specs: dict[str, AlertSpec] = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: AlertSpec) -> AlertSpec:
        existing = self._specs.get(spec.name)
        if existing is not None and existing != spec:
            raise ValueError(
                f"alert {spec.name!r} already registered as {existing}"
            )
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> AlertSpec | None:
        return self._specs.get(name)

    def names(self) -> list[str]:
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[AlertSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)


#: Every alert series the SLO monitor emits, in one table (TEL002 and
#: the monitor's runtime check both read this).
ALERT_REGISTRY = AlertRegistry(
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
