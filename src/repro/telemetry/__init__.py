"""Prometheus/Jaeger-like telemetry: metrics, tracing and SLO monitoring.

* :class:`~repro.telemetry.metrics.MetricsHub` -- windowed aggregate
  metrics (the Prometheus substitute).  Writers intern one handle per
  series (``latency_handle`` / ``counter_handle`` / ``gauge_handle``);
  every metric name is declared in
  :data:`~repro.telemetry.registry.DEFAULT_REGISTRY` with its kind and
  expected labels, the hub raises :class:`~repro.errors.TelemetryError`
  when a handle names an undeclared series, and the ursalint rule
  ``TEL001`` checks literals at lint time.
* :mod:`~repro.telemetry.tracing` -- per-request span trees plus the
  critical-path analyzer attributing end-to-end latency to
  (service, phase) pairs (the Jaeger substitute).
* :mod:`~repro.telemetry.slo` and :mod:`~repro.telemetry.audit` -- SLO
  burn-rate alerting and the span-driven budget audit.  Like the tracer,
  they keep their results to themselves and write nothing to the hub.

See ``docs/observability.md`` for the span model, critical-path
semantics, and the digest workflow.
"""

from repro.telemetry.audit import (
    AuditVerdict,
    audit_budgets,
    render_audit,
    verdicts_payload,
)
from repro.telemetry.metrics import LabelSet, MetricsHub, labels_key
from repro.telemetry.registry import (
    ALERT_REGISTRY,
    DEFAULT_REGISTRY,
    AlertSpec,
    MetricRegistry,
    MetricSpec,
    Registry,
)
from repro.telemetry.slo import (
    Alert,
    SLOMonitor,
    SLOSpec,
    alerts_digest,
    alerts_from_jsonl,
    alerts_to_jsonl,
    slo_specs_for,
)
from repro.telemetry.tracing import (
    CriticalPathSummary,
    PathSegment,
    Span,
    Trace,
    Tracer,
    attribute_latency,
    critical_path,
    traces_to_chrome,
    traces_to_jsonl,
    write_chrome_trace,
)

__all__ = [
    "ALERT_REGISTRY",
    "Alert",
    "AlertSpec",
    "AuditVerdict",
    "CriticalPathSummary",
    "DEFAULT_REGISTRY",
    "LabelSet",
    "MetricRegistry",
    "MetricSpec",
    "MetricsHub",
    "PathSegment",
    "Registry",
    "SLOMonitor",
    "SLOSpec",
    "Span",
    "Trace",
    "Tracer",
    "alerts_digest",
    "alerts_from_jsonl",
    "alerts_to_jsonl",
    "attribute_latency",
    "audit_budgets",
    "critical_path",
    "labels_key",
    "render_audit",
    "slo_specs_for",
    "traces_to_chrome",
    "traces_to_jsonl",
    "verdicts_payload",
    "write_chrome_trace",
]
