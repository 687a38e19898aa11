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

Import from those modules: the package itself re-exports nothing, so
a run never loads the audit it does not use.  See
``docs/observability.md`` for the span model, critical-path semantics,
and the digest workflow.
"""
