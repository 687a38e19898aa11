"""Tests for step autoscaling (Auto-a / Auto-b)."""

import pytest

from repro.apps.topology import AppSpec, Application, RequestClass, SlaSpec
from repro.baselines import autoscaler
from repro.baselines.autoscaler import StepAutoscaler, auto_a, auto_b
from repro.cluster import ClusterOptions
from repro.errors import ConfigurationError
from repro.net.messages import Call
from repro.services.spec import ServiceSpec
from repro.sim import LogNormal, RandomStreams
from repro.workload import ConstantLoad, LoadGenerator, RequestMix


def build_app(replicas=1):
    spec = AppSpec(
        "one",
        services=(
            ServiceSpec(
                "svc", cpus_per_replica=1, handlers={"r": LogNormal(0.01, 0.4)}
            ),
        ),
        request_classes=(RequestClass("r", Call("svc"), SlaSpec(99, 1.0)),),
    )
    return Application(
        spec, 3, initial_replicas=replicas,
        cluster_options=ClusterOptions(nodes=1, node_cpus=64, node_memory_gb=128),
    )


def test_configs():
    a, b = auto_a(), auto_b()
    assert a.scale_out_above == 0.60 and a.scale_in_below == 0.30
    assert b.scale_out_above < a.scale_out_above  # tuned = more eager


def test_scales_out_under_high_utilization():
    app = build_app(replicas=1)
    env = app.env
    scaler = StepAutoscaler(app, auto_a())
    scaler.start()
    # 80 rps x 10ms = 0.8 busy cores on 1 core: util > 60%.
    LoadGenerator(app, ConstantLoad(80.0), RequestMix({"r": 1.0}),
                  RandomStreams(4), stop_at_s=400).start()
    env.run(until=400)
    assert app.services["svc"].deployment.desired_replicas >= 2
    assert scaler.decisions > 0


def test_scales_in_when_idle():
    app = build_app(replicas=4)
    env = app.env
    scaler = StepAutoscaler(app, auto_a())
    scaler.start()
    LoadGenerator(app, ConstantLoad(5.0), RequestMix({"r": 1.0}),
                  RandomStreams(5), stop_at_s=400).start()
    env.run(until=400)
    assert app.services["svc"].deployment.desired_replicas < 4


def test_respects_min_max(monkeypatch):
    monkeypatch.setattr(autoscaler, "MAX_REPLICAS", 2)
    app = build_app(replicas=1)
    env = app.env
    config = auto_a()
    scaler = StepAutoscaler(app, config)
    scaler.start()
    # 150 rps x 10 ms = 1.5 busy cores: 75 % of the 2-replica cap, above
    # the 60 % scale-out threshold, yet within what 2 replicas can serve.
    LoadGenerator(app, ConstantLoad(150.0), RequestMix({"r": 1.0}),
                  RandomStreams(6), stop_at_s=130).start()
    env.run(until=125)
    # Steps at 60 s (1 -> 2), 90 s and 120 s (held at the cap).
    assert app.services["svc"].deployment.desired_replicas == 2
    assert scaler.decisions == 1
    # The scaler still wants more: the last interval ran above the
    # scale-out threshold, and the capped decision is the cap itself.
    utilization = app.hub.gauge_mean(
        "cpu_utilization", env.now - autoscaler.CONTROL_INTERVAL_S, env.now,
        {"service": "svc"},
    )
    assert utilization > config.scale_out_above
    assert scaler.decide("svc") == 2


def test_double_start_rejected():
    app = build_app()
    scaler = StepAutoscaler(app, auto_a())
    scaler.start()
    with pytest.raises(ConfigurationError):
        scaler.start()


def test_decide_holds_without_data():
    app = build_app()
    scaler = StepAutoscaler(app, auto_a())
    assert scaler.decide("svc") is None  # no utilisation samples yet
