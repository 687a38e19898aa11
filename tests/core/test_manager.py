"""Integration tests for the UrsaManager facade (miniature app)."""

import pytest

from repro.apps.topology import AppSpec, Application, RequestClass, SlaSpec
from repro.cluster import ClusterOptions
from repro.core.exploration import ExplorationResult, LprOption, ServiceProfile
from repro.core.manager import UrsaManager
from repro.errors import ConfigurationError
from repro.net.messages import Call, CallMode
from repro.services.spec import ServiceSpec
from repro.sim import LogNormal, RandomStreams
from repro.stats.distributions import DEFAULT_PERCENTILE_GRID
from repro.workload import ConstantLoad, LoadGenerator, RequestMix

GRID = DEFAULT_PERCENTILE_GRID


def tiny_spec():
    return AppSpec(
        "tiny",
        services=(
            ServiceSpec("front", cpus_per_replica=1,
                        handlers={"req": LogNormal(0.002, 0.4)}),
            ServiceSpec("work", cpus_per_replica=1,
                        handlers={"req": LogNormal(0.010, 0.5)}),
        ),
        request_classes=(
            RequestClass("req", Call("front", CallMode.RPC, (Call("work"),)),
                         SlaSpec(99.0, 0.3)),
        ),
    )


def synthetic_exploration():
    """Hand-built profiles: LPR options at 15/30/60 rps per replica."""

    def options(base_latency):
        out = []
        for k, lpr in enumerate([15.0, 30.0, 60.0]):
            rows = [base_latency * (1 + k) * (1 + 0.1 * i) for i in range(len(GRID))]
            out.append(
                LprOption(
                    replicas=3 - k,
                    lpr={"req": lpr},
                    load_samples={"req": [lpr * f for f in (0.95, 1.0, 1.05)]},
                    latency_rows={"req": rows},
                    utilization=0.3 + 0.15 * k,
                )
            )
        return out

    profiles = {
        "front": ServiceProfile("front", 1, options(0.004), 30, 1800, "sla"),
        "work": ServiceProfile("work", 1, options(0.015), 30, 1800, "sla"),
    }
    return ExplorationResult("tiny", profiles)


def make_app():
    return Application(
        tiny_spec(), 9, initial_replicas=1,
        cluster_options=ClusterOptions(nodes=1, node_cpus=64, node_memory_gb=128),
    )


def test_initialize_scales_to_mip_solution():
    app = make_app()
    env = app.env
    env.run(until=10)
    manager = UrsaManager(app, synthetic_exploration())
    outcome = manager.initialize({"req": 50.0})
    # The chosen thresholds size replicas as ceil(load / lpr).
    for name, threshold in outcome.thresholds.items():
        expected = threshold.replicas_for({"req": 50.0})
        assert app.services[name].deployment.desired_replicas == expected
    assert outcome.predicted_bounds["req"] <= 0.3


def test_start_requires_initialize():
    app = make_app()
    manager = UrsaManager(app, synthetic_exploration())
    with pytest.raises(ConfigurationError):
        manager.start()


def test_double_start_rejected():
    app = make_app()
    env = app.env
    env.run(until=10)
    manager = UrsaManager(app, synthetic_exploration())
    manager.initialize({"req": 30.0})
    manager.start()
    with pytest.raises(ConfigurationError):
        manager.start()


def test_managed_deployment_meets_sla():
    app = make_app()
    env = app.env
    env.run(until=10)
    manager = UrsaManager(app, synthetic_exploration())
    manager.initialize({"req": 60.0})
    manager.start()
    LoadGenerator(app, ConstantLoad(60.0), RequestMix({"req": 1.0}),
                  RandomStreams(10), stop_at_s=500).start()
    env.run(until=540)
    assert app.windowed_violation_rate(120, 540) < 0.25


def test_observed_class_loads():
    app = make_app()
    env = app.env
    env.run(until=10)
    manager = UrsaManager(app, synthetic_exploration())
    manager.initialize({"req": 40.0})
    LoadGenerator(app, ConstantLoad(40.0), RequestMix({"req": 1.0}),
                  RandomStreams(11), stop_at_s=300).start()
    env.run(until=300)
    loads = manager.observed_class_loads()
    assert loads["req"] == pytest.approx(40.0, rel=0.2)


def test_deploy_timing_probe():
    # The two paths Table VI times: the per-service threshold check and
    # the MIP re-solve (timed in table06_control_plane.time_decisions).
    app = make_app()
    env = app.env
    env.run(until=10)
    manager = UrsaManager(app, synthetic_exploration())
    first = manager.initialize({"req": 30.0})
    for _ in range(5):
        for service in manager.controller.thresholds:
            decision = manager.controller.decide(service)
            assert decision is None or decision.service == service
    outcome = manager.engine.optimize(
        app.spec, manager.exploration, {"req": 30.0}
    )
    assert outcome is not first
    assert outcome.thresholds == first.thresholds


def test_detector_callbacks_drive_the_manager():
    app = make_app()
    env = app.env
    env.run(until=10)
    manager = UrsaManager(app, synthetic_exploration())
    first = manager.initialize({"req": 30.0})
    LoadGenerator(app, ConstantLoad(30.0), RequestMix({"req": 1.0}),
                  RandomStreams(12), stop_at_s=200).start()
    env.run(until=200)
    # A latency anomaly queues the services for offline re-exploration,
    # once each.
    manager.detector.on_reexplore(["work"])
    manager.detector.on_reexplore(["work"])
    assert manager.pending_reexploration == ["work"]
    # A load anomaly re-solves the MIP for the observed loads and hands
    # the new thresholds to both loops.
    manager.detector.on_recalculate()
    assert manager.recalculations == 1
    assert manager.outcome is not first
    assert manager.controller.thresholds == manager.outcome.thresholds
    assert manager.detector.thresholds == manager.outcome.thresholds
