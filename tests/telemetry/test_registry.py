"""Tests for the metric-name registry and the hub's write validation."""

import warnings

import pytest

from repro.apps.topology import Application
from repro.errors import TelemetryError
from repro.experiments.artifacts import app_spec
from repro.telemetry.metrics import MetricsHub
from repro.telemetry.registry import (
    DEFAULT_REGISTRY,
    MetricRegistry,
    MetricSpec,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- MetricSpec / MetricRegistry -------------------------------------------


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        MetricSpec("m", "histogram")


def test_register_identical_spec_is_noop():
    registry = MetricRegistry()
    spec = MetricSpec("m", "counter", ("a",))
    registry.register(spec)
    registry.register(MetricSpec("m", "counter", ("a",)))
    assert len(registry) == 1


def test_register_conflicting_spec_raises():
    registry = MetricRegistry([MetricSpec("m", "counter", ("a",))])
    with pytest.raises(ValueError, match="already registered"):
        registry.register(MetricSpec("m", "gauge", ("a",)))


def test_check_unknown_name():
    registry = MetricRegistry([MetricSpec("m", "counter")])
    problem = registry.check("n", "counter", ())
    assert problem is not None and "not declared" in problem


def test_check_kind_mismatch():
    registry = MetricRegistry([MetricSpec("m", "counter")])
    problem = registry.check("m", "gauge", ())
    assert problem is not None and "declared as a counter" in problem


def test_check_label_subset_ok_extra_flagged():
    registry = MetricRegistry([MetricSpec("m", "counter", ("a", "b"))])
    assert registry.check("m", "counter", ("a",)) is None
    assert registry.check("m", "counter", ("a", "b")) is None
    problem = registry.check("m", "counter", ("a", "z"))
    assert problem is not None and "undeclared label keys" in problem


def test_registry_container_protocol():
    registry = MetricRegistry([MetricSpec("m", "counter")])
    assert "m" in registry and "n" not in registry
    assert registry.names() == ["m"]
    assert [spec.name for spec in registry] == ["m"]
    assert registry.get("m").kind == "counter"
    assert registry.get("n") is None


def test_default_registry_has_core_metrics():
    for name in ("request_latency", "requests_total", "cpu_utilization"):
        assert name in DEFAULT_REGISTRY


# -- hub integration --------------------------------------------------------


def test_hub_raises_on_unregistered_name():
    hub = MetricsHub(FakeClock())
    with pytest.raises(TelemetryError, match="not declared"):
        hub.inc_counter("no_such_metric")


def test_hub_raises_on_kind_mismatch():
    hub = MetricsHub(FakeClock())
    with pytest.raises(TelemetryError, match="declared as a counter"):
        hub.record_latency("requests_total", 1.0)


def test_hub_raises_on_undeclared_label_key():
    hub = MetricsHub(FakeClock())
    with pytest.raises(TelemetryError, match="undeclared label keys"):
        hub.observe_gauge("cpu_utilization", 0.5, {"zone": "a"})


def test_application_default_hub_raises_on_unregistered_write():
    app = Application(app_spec("social-network"))
    with pytest.raises(TelemetryError, match="not declared"):
        app.hub.inc_counter("no_such_metric")


def test_hub_registry_none_disables_checking():
    hub = MetricsHub(FakeClock(), registry=None)
    hub.inc_counter("anything_goes", labels={"x": "y"})


def test_hub_checks_only_on_new_series():
    hub = MetricsHub(FakeClock())
    hub.inc_counter("requests_total", labels={"service": "s"})
    # An empty registry would reject any new series; the existing one is
    # not re-checked (validation runs at series creation only).
    hub.registry = MetricRegistry()
    hub.inc_counter("requests_total", labels={"service": "s"})
    with pytest.raises(TelemetryError, match="not declared"):
        hub.inc_counter("requests_total", labels={"service": "t"})


def test_hub_registered_writes_are_silent():
    hub = MetricsHub(FakeClock())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hub.record_latency("request_latency", 0.1, {"request": "r"})
        hub.inc_counter("requests_total", labels={"request": "r", "service": "s"})
        hub.observe_gauge("queue_depth", 2.0, {"service": "s"})


# -- counter_total partial-bucket accounting --------------------------------


@pytest.fixture
def counting_hub():
    clock = FakeClock()
    hub = MetricsHub(clock, window_s=60.0, registry=None)
    clock.now = 30.0
    hub.inc_counter("c", 6.0)
    clock.now = 90.0
    hub.inc_counter("c", 12.0)
    return hub


def test_counter_total_exact_bucket(counting_hub):
    assert counting_hub.counter_total("c", 0.0, 60.0) == pytest.approx(6.0)
    assert counting_hub.counter_total("c", 60.0, 120.0) == pytest.approx(12.0)


def test_counter_total_full_range(counting_hub):
    assert counting_hub.counter_total("c", 0.0, 120.0) == pytest.approx(18.0)


def test_counter_total_half_buckets(counting_hub):
    # Uniform-within-bucket assumption: half the bucket, half the count.
    assert counting_hub.counter_total("c", 0.0, 30.0) == pytest.approx(3.0)
    assert counting_hub.counter_total("c", 30.0, 60.0) == pytest.approx(3.0)
    assert counting_hub.counter_total("c", 30.0, 90.0) == pytest.approx(9.0)


def test_counter_total_interval_wider_than_bucket(counting_hub):
    # The old double-clamp could never fire (intersection <= window_s);
    # a window fully inside the interval contributes exactly its count.
    assert counting_hub.counter_total("c", -60.0, 180.0) == pytest.approx(18.0)


def test_counter_total_empty_and_boundary(counting_hub):
    assert counting_hub.counter_total("c", 120.0, 180.0) == 0.0
    # Degenerate interval on a boundary: zero overlap with every bucket.
    assert counting_hub.counter_total("c", 60.0, 60.0) == 0.0


def test_counter_rate_uses_fractional_totals(counting_hub):
    assert counting_hub.counter_rate("c", 0.0, 120.0) == pytest.approx(18.0 / 120.0)
    assert counting_hub.counter_rate("c", 30.0, 90.0) == pytest.approx(9.0 / 60.0)
