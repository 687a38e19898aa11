"""TEL001 fixture: registered (or dynamic) metric handles; must be clean."""

#: A registered name behind a module-level constant resolves cleanly.
_LATENCY_METRIC = "service_latency"

#: Reassigned constants are ambiguous and fall back to the runtime check.
_AMBIGUOUS = "not_a_metric"
_AMBIGUOUS = "also_not_a_metric"  # noqa: F811


def record(hub, service, name):
    hub.latency_handle(_LATENCY_METRIC, {"service": service}).record(0.5)
    hub.counter_handle(_AMBIGUOUS, labels={"anything": "goes"}).inc()
    hub.latency_handle("service_latency", {"service": service, "request": "r"})
    hub.counter_handle("requests_total", labels={"request": "r", "service": service})
    # Subset of the declared label keys is allowed.
    hub.gauge_handle("cpu_utilization").observe(0.4)
    # Dynamic names are the runtime check's job, not the linter's.
    hub.counter_handle(name, labels={"anything": "goes"})
