"""Tests for the windowed metrics hub."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry.metrics import MetricsHub, labels_key


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def hub(clock):
    # registry=None: these tests use ad-hoc metric names on purpose.
    return MetricsHub(clock, window_s=60.0, registry=None)


def test_labels_key_canonical():
    assert labels_key({"b": "2", "a": "1"}) == (("a", "1"), ("b", "2"))
    assert labels_key(None) == ()
    assert labels_key({}) == ()


def test_latency_windowing(hub, clock):
    labels = {"service": "post"}
    clock.now = 10.0
    hub.record_latency("service_latency", 1.0, labels)
    clock.now = 70.0
    hub.record_latency("service_latency", 9.0, labels)
    first = hub.latency_distribution("service_latency", 0, 60, labels)
    assert first.samples() == [1.0]
    both = hub.latency_distribution("service_latency", 0, 120, labels)
    assert both.count == 2


def test_latency_percentile_default(hub):
    assert (
        hub.latency_percentile("missing", 99, 0, 60, default=0.0) == 0.0
    )
    with pytest.raises(TelemetryError):
        hub.latency_percentile("missing", 99, 0, 60)


def test_counter_total_and_rate(hub, clock):
    clock.now = 5.0
    hub.inc_counter("requests_total", 3, {"request": "post"})
    clock.now = 65.0
    hub.inc_counter("requests_total", 7, {"request": "post"})
    assert hub.counter_total("requests_total", 0, 120, {"request": "post"}) == 10
    assert hub.counter_rate("requests_total", 0, 120, {"request": "post"}) == pytest.approx(10 / 120)
    # Missing counters read as zero (Prometheus semantics).
    assert hub.counter_total("requests_total", 0, 120, {"request": "other"}) == 0


def test_negative_counter_rejected(hub):
    with pytest.raises(TelemetryError):
        hub.inc_counter("c", -1)


def test_rate_empty_interval_rejected(hub):
    with pytest.raises(TelemetryError):
        hub.counter_rate("c", 10, 10)


def test_gauge_mean_and_series(hub, clock):
    clock.now = 1.0
    hub.observe_gauge("cpu_utilization", 0.5, {"service": "post"})
    clock.now = 2.0
    hub.observe_gauge("cpu_utilization", 0.7, {"service": "post"})
    clock.now = 61.0
    hub.observe_gauge("cpu_utilization", 0.9, {"service": "post"})
    assert hub.gauge_mean("cpu_utilization", 0, 60, {"service": "post"}) == pytest.approx(0.6)
    series = hub.gauge_series("cpu_utilization", 0, 120, {"service": "post"})
    assert series == [(0.0, pytest.approx(0.6)), (60.0, pytest.approx(0.9))]


def test_gauge_mean_default(hub):
    assert hub.gauge_mean("missing", 0, 60, default=0.0) == 0.0
    with pytest.raises(TelemetryError):
        hub.gauge_mean("missing", 0, 60)


def test_label_sets(hub, clock):
    hub.inc_counter("m", 1, {"a": "1"})
    hub.record_latency("m", 1.0, {"a": "2"})
    hub.observe_gauge("m", 1.0, {"a": "3"})
    assert hub.label_sets("m") == [{"a": "1"}, {"a": "2"}, {"a": "3"}]


def test_invalid_window(clock):
    with pytest.raises(TelemetryError):
        MetricsHub(clock, window_s=0)


def test_query_interval_validation(hub):
    with pytest.raises(TelemetryError):
        hub.latency_distribution("m", 10, 5)


def test_label_isolation(hub, clock):
    hub.record_latency("lat", 1.0, {"service": "a"})
    hub.record_latency("lat", 100.0, {"service": "b"})
    dist = hub.latency_distribution("lat", 0, 60, {"service": "a"})
    assert dist.samples() == [1.0]


# -- interned handles and the fixed latency store ----------------------


def test_counter_handle_shares_series_with_string_path(hub, clock):
    labels = {"request": "post"}
    handle = hub.counter_handle("requests_total", labels)
    clock.now = 5.0
    handle.inc()
    hub.inc_counter("requests_total", 2, labels)  # string path, same series
    clock.now = 65.0
    handle.inc(4)
    assert hub.counter_total("requests_total", 0, 60, labels) == 3
    assert hub.counter_total("requests_total", 0, 120, labels) == 7


def test_latency_handle_shares_series_with_string_path(hub, clock):
    labels = {"service": "post"}
    handle = hub.latency_handle("service_latency", labels)
    clock.now = 10.0
    handle.record(1.0)
    hub.record_latency("service_latency", 3.0, labels)
    clock.now = 70.0
    handle.record(9.0)
    first = hub.latency_distribution("service_latency", 0, 60, labels)
    assert sorted(first.samples()) == [1.0, 3.0]
    assert hub.latency_distribution("service_latency", 0, 120, labels).count == 3


def test_counter_handle_rejects_negative(hub):
    handle = hub.counter_handle("requests_total")
    with pytest.raises(TelemetryError):
        handle.inc(-1)


def test_handle_creation_runs_registry_check(clock):
    from repro.telemetry.registry import DEFAULT_REGISTRY

    checked = MetricsHub(clock, registry=DEFAULT_REGISTRY)
    with pytest.raises(TelemetryError):
        checked.counter_handle("definitely_not_a_registered_metric")
    with pytest.raises(TelemetryError):
        checked.latency_handle("definitely_not_a_registered_metric")


def test_labels_accept_canonical_tuples(hub, clock):
    """Pre-canonicalized LabelSet tuples skip re-keying but hit the
    same series as dict labels."""
    key = labels_key({"service": "post"})
    clock.now = 5.0
    hub.inc_counter("requests_total", 1, key)
    hub.inc_counter("requests_total", 1, {"service": "post"})
    assert hub.counter_total("requests_total", 0, 60, key) == 2
    handle = hub.counter_handle("requests_total", key)
    handle.inc()
    assert hub.counter_total("requests_total", 0, 60, {"service": "post"}) == 3

