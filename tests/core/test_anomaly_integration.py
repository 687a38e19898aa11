"""Integration tests for the anomaly detector on a live app."""

import pytest

from repro.apps.topology import AppSpec, Application, RequestClass, SlaSpec
from repro.cluster import ClusterOptions
from repro.core.anomaly import (
    CHECK_INTERVAL_S,
    RATIO_DEVIATION_THRESHOLD,
    SLA_VIOLATION_THRESHOLD,
    AnomalyDetector,
    request_ratio_deviation,
)
from repro.core.optimizer import ScalingThreshold
from repro.errors import ConfigurationError
from repro.net.messages import Call
from repro.services.spec import ServiceSpec
from repro.sim import LogNormal, RandomStreams
from repro.workload import ConstantLoad, LoadGenerator, RequestMix

CLASSES = ("a", "b", "c")


def build_app():
    spec = AppSpec(
        "three-class",
        services=(
            ServiceSpec(
                "svc",
                cpus_per_replica=1,
                handlers={name: LogNormal(0.004, 0.4) for name in CLASSES},
            ),
        ),
        request_classes=tuple(
            RequestClass(name, Call("svc"), SlaSpec(99, 0.5)) for name in CLASSES
        ),
    )
    return Application(
        spec, 13, initial_replicas=2,
        cluster_options=ClusterOptions(nodes=1, node_cpus=64, node_memory_gb=128),
    )


def thresholds():
    return {
        "svc": ScalingThreshold(
            service="svc",
            cpus_per_replica=1,
            lpr={name: 20.0 for name in CLASSES},
            load_samples={},
            utilization=0.5,
        )
    }


def measured_deviation(app, now):
    """The request-ratio deviation one check at ``now`` reads."""
    t0 = now - CHECK_INTERVAL_S
    loads = {
        name: app.hub.counter_rate(
            "requests_total", t0, now, {"service": "svc", "request": name}
        )
        for name in CLASSES
    }
    return request_ratio_deviation(loads, thresholds()["svc"].lpr)


def test_no_anomaly_under_matching_mix():
    app = build_app()
    env = app.env
    recalcs = []
    detector = AnomalyDetector(
        app, thresholds(), on_recalculate=lambda: recalcs.append(1)
    )
    env.run(until=10)
    LoadGenerator(app, ConstantLoad(60.0),
                  RequestMix({"a": 1.0, "b": 1.0, "c": 1.0}),
                  RandomStreams(14), stop_at_s=200).start()
    env.run(until=200)
    # Well under the threshold, not just under it.
    assert measured_deviation(app, env.now) < 0.8 * RATIO_DEVIATION_THRESHOLD
    detector.step()
    assert not recalcs
    assert not detector.events


def test_skewed_mix_triggers_recalculation():
    app = build_app()
    env = app.env
    recalcs = []
    detector = AnomalyDetector(
        app, thresholds(), on_recalculate=lambda: recalcs.append(1)
    )
    env.run(until=10)
    # 10:1:1 against 1:1:1 thresholds -> deviation 10 / 4 - 1 = 1.5.
    LoadGenerator(app, ConstantLoad(48.0),
                  RequestMix({"a": 10.0, "b": 1.0, "c": 1.0}),
                  RandomStreams(15), stop_at_s=200).start()
    env.run(until=200)
    assert measured_deviation(app, env.now) > 1.2 * RATIO_DEVIATION_THRESHOLD
    detector.step()
    assert recalcs
    assert any(e.kind == "load" for e in detector.events)


def test_latency_anomaly_triggers_reexploration():
    app = build_app()
    env = app.env
    reexplored = []
    detector = AnomalyDetector(app, thresholds(), on_reexplore=reexplored.append)
    env.run(until=10)
    LoadGenerator(app, ConstantLoad(30.0), RequestMix({"a": 0.5, "b": 0.5}),
                  RandomStreams(16), stop_at_s=200).start()
    # Throttle the service so SLAs break.
    app.services["svc"].set_speed_factor(0.02)
    env.run(until=200)
    assert detector.check_latency_anomaly(
        env.now - CHECK_INTERVAL_S, env.now
    ) > SLA_VIOLATION_THRESHOLD
    detector.step()
    assert reexplored == [["svc"]]
    assert any(e.kind == "latency" for e in detector.events)


def test_detector_loop_and_validation():
    app = build_app()
    detector = AnomalyDetector(app, thresholds())
    detector.start()
    with pytest.raises(ConfigurationError):
        detector.start()
