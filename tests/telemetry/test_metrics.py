"""Tests for the windowed metrics hub."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry.metrics import MetricsHub, labels_key
from tests.telemetry.series import label_sets


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
    return MetricsHub(clock, window_s=60.0)


def test_labels_key_canonical():
    assert labels_key({"b": "2", "a": "1"}) == (("a", "1"), ("b", "2"))
    assert labels_key((("b", "2"), ("a", "1"))) == (("a", "1"), ("b", "2"))
    assert labels_key(None) == ()
    assert labels_key({}) == ()
    assert labels_key(()) == ()


def test_latency_windowing(hub, clock):
    labels = {"service": "post"}
    handle = hub.latency_handle("service_latency", labels)
    clock.now = 10.0
    handle.record(1.0)
    clock.now = 70.0
    handle.record(9.0)
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
    handle = hub.counter_handle("requests_total", {"request": "post"})
    clock.now = 5.0
    handle.inc(3)
    clock.now = 65.0
    handle.inc(7)
    assert hub.counter_total("requests_total", 0, 120, {"request": "post"}) == 10
    assert hub.counter_rate("requests_total", 0, 120, {"request": "post"}) == pytest.approx(10 / 120)
    # Missing counters read as zero (Prometheus semantics).
    assert hub.counter_total("requests_total", 0, 120, {"request": "other"}) == 0


def test_negative_counter_rejected(hub, clock):
    handle = hub.counter_handle("client_requests_total", {"request": "post"})
    with pytest.raises(TelemetryError):
        handle.inc(-1)
    assert hub.counter_total("client_requests_total", 0, 60, {"request": "post"}) == 0


def test_rate_empty_interval_rejected(hub):
    with pytest.raises(TelemetryError):
        hub.counter_rate("requests_total", 10, 10)


def test_gauge_mean_and_series(hub, clock):
    handle = hub.gauge_handle("cpu_utilization", {"service": "post"})
    clock.now = 1.0
    handle.observe(0.5)
    clock.now = 2.0
    handle.observe(0.7)
    clock.now = 61.0
    handle.observe(0.9)
    assert hub.gauge_mean("cpu_utilization", 0, 60, {"service": "post"}) == pytest.approx(0.6)
    series = hub.gauge_series("cpu_utilization", 0, 120, {"service": "post"})
    assert series == [(0.0, pytest.approx(0.6)), (60.0, pytest.approx(0.9))]


def test_gauge_mean_default(hub):
    assert hub.gauge_mean("missing", 0, 60, default=0.0) == 0.0
    with pytest.raises(TelemetryError):
        hub.gauge_mean("missing", 0, 60)


def test_invalid_window(clock):
    with pytest.raises(TelemetryError):
        MetricsHub(clock, window_s=0)


def test_query_interval_validation(hub):
    with pytest.raises(TelemetryError):
        hub.latency_distribution("service_latency", 10, 5)


def test_label_isolation(hub, clock):
    hub.latency_handle("service_latency", {"service": "a"}).record(1.0)
    hub.latency_handle("service_latency", {"service": "b"}).record(100.0)
    dist = hub.latency_distribution("service_latency", 0, 60, {"service": "a"})
    assert dist.samples() == [1.0]


# -- interned handles ----------------------------------------------------


def test_counter_handle_shares_series_with_string_path(hub, clock):
    """Handle writes land in the series the name+labels queries read;
    re-interning a series returns a writer to the same data."""
    labels = {"request": "post"}
    handle = hub.counter_handle("requests_total", labels)
    again = hub.counter_handle("requests_total", {"request": "post"})
    clock.now = 5.0
    handle.inc()
    again.inc(2)
    clock.now = 65.0
    handle.inc(4)
    assert hub.counter_total("requests_total", 0, 60, labels) == 3
    assert hub.counter_total("requests_total", 0, 120, labels) == 7


def test_latency_handle_shares_series_with_string_path(hub, clock):
    labels = {"service": "post"}
    handle = hub.latency_handle("service_latency", labels)
    again = hub.latency_handle("service_latency", labels)
    clock.now = 10.0
    handle.record(1.0)
    again.record(3.0)
    clock.now = 70.0
    handle.record(9.0)
    first = hub.latency_distribution("service_latency", 0, 60, labels)
    assert sorted(first.samples()) == [1.0, 3.0]
    assert hub.latency_distribution("service_latency", 0, 120, labels).count == 3


def test_counter_handle_rejects_negative(hub):
    handle = hub.counter_handle("requests_total")
    with pytest.raises(TelemetryError):
        handle.inc(-1)


def test_handle_creation_runs_registry_check(hub):
    for factory in (hub.counter_handle, hub.latency_handle, hub.gauge_handle):
        with pytest.raises(TelemetryError, match="not declared"):
            factory("definitely_not_a_registered_metric")
    # A rejected handle creates no series.
    assert label_sets(hub, "definitely_not_a_registered_metric") == []


def test_labels_accept_canonical_tuples(hub, clock):
    """LabelSet tuples and dict labels name the same series."""
    key = labels_key({"service": "post"})
    clock.now = 5.0
    hub.counter_handle("requests_total", key).inc()
    hub.counter_handle("requests_total", {"service": "post"}).inc()
    assert hub.counter_total("requests_total", 0, 60, key) == 2
    assert hub.counter_total("requests_total", 0, 60, {"service": "post"}) == 2


def test_unsorted_label_tuple_names_the_dict_series(hub, clock):
    """A label tuple in any key order is canonicalised, so its writes are
    visible to a dict-label query (no hidden second series)."""
    labels = (("service", "post"), ("request", "r"))
    hub.latency_handle("service_latency", labels=labels).record(0.5)
    dist = hub.latency_distribution(
        "service_latency", 0, 60, {"request": "r", "service": "post"}
    )
    assert dist.samples() == [0.5]
    assert label_sets(hub, "service_latency") == [{"request": "r", "service": "post"}]



def _env_clocked_hubs(window_s):
    """(env, hub) pairs clocked by ``env.clock()``: a bare hub, and the
    hub the application constructor builds."""
    from repro.apps.social_network import build_social_network_spec
    from repro.apps.topology import Application
    from repro.sim import Environment

    env = Environment()
    app = Application(build_social_network_spec(), 0, window_s=window_s)
    return [(env, MetricsHub(env.clock(), window_s=window_s)), (app.env, app.hub)]


@pytest.mark.parametrize("window_s", [60.0, 0.25])
def test_env_clock_write_at_a_window_boundary_lands_in_that_window(window_s):
    labels = {"request": "r", "service": "s"}
    for env, hub in _env_clocked_hubs(window_s):
        counter = hub.counter_handle("requests_total", labels)
        latency = hub.latency_handle("service_latency", labels)
        for k in range(1, 4):
            boundary = k * window_s
            env.run(until=boundary)
            assert env.clock()() == env.now == boundary
            counter.inc()
            latency.record(float(k))
            after = hub.counter_total("requests_total", boundary, boundary + window_s, labels)
            before = hub.counter_total("requests_total", boundary - window_s, boundary, labels)
            assert (before, after) == (0.0 if k == 1 else 1.0, 1.0)
            pooled = hub.latency_distribution(
                "service_latency", boundary, boundary + window_s, labels
            )
            assert len(pooled) == 1 and pooled.percentile(50) == float(k)
