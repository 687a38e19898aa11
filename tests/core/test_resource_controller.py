"""Tests for the threshold-based resource controller."""

import pytest

from repro.apps.topology import AppSpec, Application, RequestClass, SlaSpec
from repro.cluster import ClusterOptions
from repro.core.optimizer import ScalingThreshold
from repro.core import resource_controller
from repro.core.resource_controller import ResourceController
from repro.errors import ConfigurationError
from repro.net.messages import Call
from repro.services.spec import ServiceSpec
from repro.sim import Constant, RandomStreams
from repro.workload import ConstantLoad, LoadGenerator, RequestMix


def build_app(replicas=2):
    spec = AppSpec(
        name="one",
        services=(
            ServiceSpec("svc", cpus_per_replica=1, handlers={"req": Constant(0.005)}),
        ),
        request_classes=(
            RequestClass("req", Call("svc"), SlaSpec(99.0, 1.0)),
        ),
    )
    return Application(
        spec, 1, initial_replicas=replicas,
        cluster_options=ClusterOptions(nodes=1, node_cpus=64, node_memory_gb=128),
    )


def threshold(lpr, samples=None):
    return ScalingThreshold(
        service="svc",
        cpus_per_replica=1,
        lpr={"req": lpr},
        load_samples={"req": samples if samples is not None else
                      [lpr * f for f in (0.96, 0.99, 1.01, 1.04)]},
        utilization=0.5,
    )


def drive(env, app, rps, until):
    LoadGenerator(
        app, ConstantLoad(rps), RequestMix({"req": 1.0}), RandomStreams(2),
        stop_at_s=until,
    ).start()
    env.run(until=until)


def test_scales_out_when_load_exceeds_threshold():
    app = build_app(replicas=1)
    env = app.env
    controller = ResourceController(app, {"svc": threshold(lpr=20.0)})
    env.run(until=10)
    drive(env, app, rps=60.0, until=130)  # 3x the per-replica threshold
    decision = controller.decide("svc")
    assert decision is not None
    assert decision.to_replicas == 3
    assert "scale-out" in decision.reason


def test_holds_when_load_matches_threshold_noise():
    app = build_app(replicas=2)
    env = app.env
    controller = ResourceController(app, {"svc": threshold(lpr=20.0)})
    env.run(until=10)
    drive(env, app, rps=40.0, until=130)  # exactly at threshold
    decision = controller.decide("svc")
    # Either no decision or a +-0 change; the t-test absorbs noise.
    if decision is not None:
        assert abs(decision.to_replicas - 2) <= 1


def test_scales_in_when_overprovisioned():
    app = build_app(replicas=5)
    env = app.env
    controller = ResourceController(app, {"svc": threshold(lpr=20.0)})
    env.run(until=10)
    drive(env, app, rps=20.0, until=130)  # needs just one replica
    decision = controller.decide("svc")
    assert decision is not None
    assert decision.to_replicas < 5
    assert decision.reason == "scale-in"


def test_step_applies_decisions():
    app = build_app(replicas=1)
    env = app.env
    controller = ResourceController(app, {"svc": threshold(lpr=10.0)})
    env.run(until=10)
    drive(env, app, rps=50.0, until=130)
    applied = controller.step()
    assert applied
    env.run(until=160)
    assert app.services["svc"].deployment.desired_replicas == applied[0].to_replicas


def test_loop_runs_periodically():
    app = build_app(replicas=1)
    env = app.env
    controller = ResourceController(app, {"svc": threshold(lpr=10.0)})
    controller.start()
    drive(env, app, rps=50.0, until=200)
    assert controller.decisions  # scaled at least once
    assert app.services["svc"].deployment.desired_replicas >= 4


def test_unknown_service_ignored():
    app = build_app()
    controller = ResourceController(app, {})
    assert controller.decide("svc") is None


def test_validation():
    app = build_app()
    controller = ResourceController(app, {})
    controller.start()
    with pytest.raises(ConfigurationError):
        controller.start()


def test_min_replicas_respected(monkeypatch):
    monkeypatch.setattr(resource_controller, "MIN_REPLICAS", 2)
    app = build_app(replicas=4)
    env = app.env
    controller = ResourceController(app, {"svc": threshold(lpr=1000.0)})
    env.run(until=10)
    drive(env, app, rps=5.0, until=130)
    decision = controller.decide("svc")
    assert decision is not None
    assert decision.to_replicas >= 2
