"""TEL001 fixture: unregistered metric handles that must be flagged."""

#: Module-level constants resolve like literals.
_TYPOD_METRIC = "request_latencies"


def record(hub, service):
    # Typo'd name reached through a module-level constant.
    hub.latency_handle(_TYPOD_METRIC, {"request": "r"})
    # Typo'd name: no such metric in the registry.
    hub.latency_handle("servce_latency", {"service": service})
    # Kind mismatch: requests_total is a counter, not a gauge.
    hub.gauge_handle("requests_total", {"service": service})
    # Undeclared label key on a registered metric.
    hub.counter_handle("client_requests_total", labels={"tier": "frontend"})
