"""Enumerate a metrics hub's series for the telemetry tests."""

from repro.telemetry.metrics import MetricsHub


def label_sets(hub: MetricsHub, name: str) -> list[dict[str, str]]:
    """Label sets of every series interned for ``name`` (any kind).

    A series exists from the moment a handle interns it, so a label set
    may be listed before (or without) any write.
    """
    seen = set()
    for table in (hub._latency, hub._counters, hub._gauges):
        seen.update(table.get(name, {}))
    return [dict(ls) for ls in sorted(seen)]
