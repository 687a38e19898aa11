"""Tests for the metric-name registry and the hub's write validation."""

import warnings

import pytest

from repro.api import RunOptions, SLOOptions, TracingOptions, run_deployment
from repro.apps.topology import Application
from repro.errors import TelemetryError
from repro.experiments.artifacts import app_spec
from repro.telemetry.metrics import MetricsHub
from repro.telemetry.registry import (
    ALERT_REGISTRY,
    DEFAULT_REGISTRY,
    AlertSpec,
    MetricRegistry,
    MetricSpec,
    Registry,
)
from repro.workload.defaults import default_mix_for
from repro.workload.patterns import ConstantLoad
from tests.telemetry.series import label_sets


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
    assert len(DEFAULT_REGISTRY) == 9


def test_alert_table_uses_the_same_container():
    assert isinstance(DEFAULT_REGISTRY, Registry)
    assert type(ALERT_REGISTRY) is Registry
    assert ALERT_REGISTRY.names() == ["slo-budget-exhausted", "slo-burn-rate"]
    registry = Registry([AlertSpec("a")])
    registry.register(AlertSpec("a"))
    assert len(registry) == 1 and "a" in registry
    with pytest.raises(ValueError, match="already registered"):
        registry.register(AlertSpec("a", severity="ticket"))


# -- hub integration --------------------------------------------------------


def test_hub_raises_on_unregistered_name():
    hub = MetricsHub(FakeClock())
    for factory in (hub.counter_handle, hub.latency_handle, hub.gauge_handle):
        with pytest.raises(TelemetryError, match="not declared"):
            factory("no_such_metric")


def test_hub_raises_on_kind_mismatch():
    hub = MetricsHub(FakeClock())
    with pytest.raises(TelemetryError, match="declared as a counter"):
        hub.latency_handle("requests_total")
    with pytest.raises(TelemetryError, match="declared as a latency"):
        hub.gauge_handle("request_latency")
    with pytest.raises(TelemetryError, match="declared as a gauge"):
        hub.counter_handle("cpu_utilization")


def test_hub_raises_on_undeclared_label_key():
    hub = MetricsHub(FakeClock())
    with pytest.raises(TelemetryError, match="undeclared label keys"):
        hub.gauge_handle("cpu_utilization", {"zone": "a"})
    with pytest.raises(TelemetryError, match="undeclared label keys"):
        hub.counter_handle("client_requests_total", {"service": "s"})
    with pytest.raises(TelemetryError, match="undeclared label keys"):
        hub.latency_handle("service_latency", (("zone", "a"),))


def test_application_default_hub_raises_on_unregistered_write():
    app = Application(app_spec("social-network"), 0)
    with pytest.raises(TelemetryError, match="not declared"):
        app.hub.counter_handle("no_such_metric")


def test_hub_checks_only_on_new_series(monkeypatch):
    hub = MetricsHub(FakeClock())
    hub.counter_handle("requests_total", labels={"service": "s"})
    # A registry that rejects everything would refuse any new series; the
    # existing one is not re-checked (validation runs at series creation).
    monkeypatch.setattr(
        DEFAULT_REGISTRY, "check", lambda name, kind, keys: f"{name} rejected"
    )
    hub.counter_handle("requests_total", labels={"service": "s"}).inc()
    with pytest.raises(TelemetryError, match="rejected"):
        hub.counter_handle("requests_total", labels={"service": "t"})


def test_hub_registered_writes_are_silent():
    hub = MetricsHub(FakeClock())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hub.latency_handle("request_latency", {"request": "r"}).record(0.1)
        hub.counter_handle(
            "requests_total", labels={"request": "r", "service": "s"}
        ).inc()
        hub.gauge_handle("queue_depth", {"service": "s"}).observe(2.0)


SLO_OPTIONS = SLOOptions(fast_window_s=10.0, slow_window_s=30.0, bucket_s=2.0)


def _series_after_short_run(observed: bool):
    """Every declared metric's label sets after a short deployment, and
    the hub that holds them.  ``observed`` turns tracing and SLO
    monitoring on."""
    apps = []
    run_deployment(
        app_spec("social-network"),
        default_mix_for("social-network"),
        ConstantLoad(25.0),
        apps.append,
        manager_name="noop",
        load_name="constant",
        options=RunOptions(
            seed=21,
            duration_s=50.0,
            measure_from_s=15.0,
            slo=SLO_OPTIONS if observed else None,
            tracing=TracingOptions(sample_every_n=5) if observed else None,
        ),
    )
    (app,) = apps
    hub = app.hub
    return {name: label_sets(hub, name) for name in DEFAULT_REGISTRY.names()}, hub


def test_real_deployment_writes_every_declared_metric():
    series, hub = _series_after_short_run(observed=False)
    for spec in DEFAULT_REGISTRY:
        series_labels = series[spec.name]
        assert series_labels, spec.name
        if spec.kind == "latency":
            samples = sum(
                hub.latency_distribution(spec.name, 0, 50, ls).count
                for ls in series_labels
            )
        elif spec.kind == "counter":
            samples = sum(
                hub.counter_total(spec.name, 0, 50, ls) for ls in series_labels
            )
        else:
            samples = sum(
                len(hub.gauge_series(spec.name, 0, 50, ls)) for ls in series_labels
            )
        assert samples > 0, spec.name
    # Tracing and SLO monitoring write nothing to the hub (and the hub
    # holds no series outside the registry, so none can hide elsewhere).
    observed, _ = _series_after_short_run(observed=True)
    assert observed == series


# -- counter_total partial-bucket accounting --------------------------------


@pytest.fixture
def counting_hub():
    clock = FakeClock()
    hub = MetricsHub(clock, window_s=60.0)
    handle = hub.counter_handle("client_requests_total")
    clock.now = 30.0
    handle.inc(6.0)
    clock.now = 90.0
    handle.inc(12.0)
    return hub


def test_counter_total_exact_bucket(counting_hub):
    assert counting_hub.counter_total("client_requests_total", 0.0, 60.0) == pytest.approx(6.0)
    assert counting_hub.counter_total("client_requests_total", 60.0, 120.0) == pytest.approx(12.0)


def test_counter_total_full_range(counting_hub):
    assert counting_hub.counter_total("client_requests_total", 0.0, 120.0) == pytest.approx(18.0)


def test_counter_total_half_buckets(counting_hub):
    # Uniform-within-bucket assumption: half the bucket, half the count.
    assert counting_hub.counter_total("client_requests_total", 0.0, 30.0) == pytest.approx(3.0)
    assert counting_hub.counter_total("client_requests_total", 30.0, 60.0) == pytest.approx(3.0)
    assert counting_hub.counter_total("client_requests_total", 30.0, 90.0) == pytest.approx(9.0)


def test_counter_total_interval_wider_than_bucket(counting_hub):
    # The old double-clamp could never fire (intersection <= window_s);
    # a window fully inside the interval contributes exactly its count.
    assert counting_hub.counter_total("client_requests_total", -60.0, 180.0) == pytest.approx(18.0)


def test_counter_total_empty_and_boundary(counting_hub):
    assert counting_hub.counter_total("client_requests_total", 120.0, 180.0) == 0.0
    # Degenerate interval on a boundary: zero overlap with every bucket.
    assert counting_hub.counter_total("client_requests_total", 60.0, 60.0) == 0.0


def test_counter_rate_uses_fractional_totals(counting_hub):
    assert counting_hub.counter_rate("client_requests_total", 0.0, 120.0) == pytest.approx(18.0 / 120.0)
    assert counting_hub.counter_rate("client_requests_total", 30.0, 90.0) == pytest.approx(9.0 / 60.0)
