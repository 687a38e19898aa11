"""Integration tests for the microservice runtime and topology layer."""

import pytest

from repro.apps.topology import Application, AppSpec, RequestClass, SlaSpec
from repro.cluster import ClusterOptions
from repro.errors import TopologyError
from repro.net.messages import Call, CallMode
from repro.services.spec import ServiceSpec
from repro.sim import Constant, Exponential, RandomStreams
from repro.workload import ConstantLoad, LoadGenerator, RequestMix


def two_tier_spec(mode=CallMode.RPC, work_front=0.002, work_back=0.005):
    """front -> back via the given mode, one request class 'req'."""
    return AppSpec(
        name="two-tier",
        services=(
            ServiceSpec(
                "front", cpus_per_replica=2, handlers={"req": Constant(work_front)}
            ),
            ServiceSpec(
                "back", cpus_per_replica=2, handlers={"req": Constant(work_back)}
            ),
        ),
        request_classes=(
            RequestClass(
                name="req",
                tree=Call("front", CallMode.RPC, (Call("back", mode),)),
                sla=SlaSpec(percentile=99.0, target_s=0.5),
            ),
        ),
    )


def make_app(spec, seed=0, replicas=1):
    app = Application(
        spec, seed, initial_replicas=replicas,
        cluster_options=ClusterOptions(nodes=2, node_cpus=64, node_memory_gb=128),
    )
    app.env.run(until=10)  # let initial replicas start
    return app


def test_single_request_completes():
    app = make_app(two_tier_spec())
    request, done = app.submit("req")
    app.env.run(until=done)
    assert request.completion_time is not None
    # ~2ms + 5ms work + network hops
    assert 0.007 <= request.latency < 0.05


def test_latency_includes_both_tiers():
    app = make_app(two_tier_spec(work_front=0.010, work_back=0.020))
    request, done = app.submit("req")
    app.env.run(until=done)
    assert request.latency >= 0.030


def test_mq_edge_completes_and_counts():
    app = make_app(two_tier_spec(mode=CallMode.MQ))
    request, done = app.submit("req")
    app.env.run(until=done)
    assert request.completion_time is not None
    back = app.services["back"]
    assert back.queue.published == 1
    assert back.queue.consumed == 1


def test_request_latency_metric_recorded():
    app = make_app(two_tier_spec())
    _, done = app.submit("req")
    app.env.run(until=done)
    app.env.run(until=60)
    dist = app.hub.latency_distribution("request_latency", 0, 60, {"request": "req"})
    assert dist.count == 1


def test_sla_violation_counted():
    spec = AppSpec(
        name="slow",
        services=(
            ServiceSpec("svc", cpus_per_replica=1, handlers={"req": Constant(0.2)}),
        ),
        request_classes=(
            RequestClass(
                "req", Call("svc"), SlaSpec(percentile=99.0, target_s=0.05)
            ),
        ),
    )
    app = make_app(spec)
    _, done = app.submit("req")
    app.env.run(until=done)
    app.env.run(until=60)
    assert app.sla_violation_rate(0, 60) == 1.0


def test_unknown_class_rejected():
    app = make_app(two_tier_spec())
    with pytest.raises(TopologyError):
        app.submit("nope")


def test_spec_validates_handlers():
    with pytest.raises(TopologyError):
        AppSpec(
            name="bad",
            services=(ServiceSpec("svc", cpus_per_replica=1, handlers={}),),
            request_classes=(
                RequestClass(
                    "req", Call("svc"), SlaSpec(percentile=99, target_s=1)
                ),
            ),
        )


def test_spec_validates_services():
    with pytest.raises(TopologyError):
        AppSpec(
            name="bad",
            services=(
                ServiceSpec("svc", cpus_per_replica=1, handlers={"req": Constant(1)}),
            ),
            request_classes=(
                RequestClass(
                    "req", Call("ghost"), SlaSpec(percentile=99, target_s=1)
                ),
            ),
        )


def test_many_requests_under_load():
    spec = two_tier_spec(work_back=0.004)
    app = make_app(spec, replicas=2)
    gen = LoadGenerator(
        app,
        pattern=ConstantLoad(100.0),
        mix=RequestMix({"req": 1.0}),
        streams=RandomStreams(seed=1),
        stop_at_s=70.0,
    )
    gen.start()
    app.env.run(until=120)
    dist = app.hub.latency_distribution("request_latency", 0, 120, {"request": "req"})
    assert dist.count > 4000
    assert dist.percentile(50) < 0.05
    # All generated requests completed.
    assert dist.count == sum(gen.generated.values())


def test_scaling_up_reduces_latency_under_load():
    def run(replicas):
        spec = two_tier_spec(work_back=0.018)
        app = make_app(spec, replicas={"front": 4, "back": replicas}, seed=3)
        gen = LoadGenerator(
            app,
            pattern=ConstantLoad(100.0),
            mix=RequestMix({"req": 1.0}),
            streams=RandomStreams(seed=4),
            stop_at_s=60.0,
        )
        gen.start()
        app.env.run(until=100)
        return app.hub.latency_distribution(
            "request_latency", 20, 100, {"request": "req"}
        ).percentile(99)

    # back needs ~1.8 cores at 100 rps; 1 replica (2 cpus) is near
    # saturation, 4 replicas are comfortable.
    assert run(4) < run(1)


def test_priority_requests_served_first():
    spec = AppSpec(
        name="prio",
        services=(
            ServiceSpec(
                "svc",
                cpus_per_replica=1,
                handlers={"high": Exponential(0.02), "low": Exponential(0.02)},
            ),
        ),
        request_classes=(
            RequestClass(
                "high", Call("svc", CallMode.MQ), SlaSpec(99, 10.0), priority=0
            ),
            RequestClass(
                "low", Call("svc", CallMode.MQ), SlaSpec(50, 10.0), priority=1
            ),
        ),
    )
    app = make_app(spec, replicas=1)
    gen = LoadGenerator(
        app,
        pattern=ConstantLoad(60.0),  # oversubscribed: ~1.2 cores of work
        mix=RequestMix({"high": 0.5, "low": 0.5}),
        streams=RandomStreams(seed=5),
        stop_at_s=40.0,
    )
    gen.start()
    app.env.run(until=300)
    high = app.hub.latency_distribution("request_latency", 0, 300, {"request": "high"})
    low = app.hub.latency_distribution("request_latency", 0, 300, {"request": "low"})
    assert high.count > 100 and low.count > 100
    assert high.percentile(90) < low.percentile(90)


def test_scale_down_drains_gracefully():
    app = make_app(two_tier_spec(), replicas=3)
    gen = LoadGenerator(
        app,
        pattern=ConstantLoad(50.0),
        mix=RequestMix({"req": 1.0}),
        streams=RandomStreams(seed=6),
        stop_at_s=30.0,
    )
    gen.start()
    app.env.run(until=15)
    app.scale("back", 1)
    app.env.run(until=60)
    assert app.replicas("back") == 1
    assert app.allocated_cpus("back") == 2
    dist = app.hub.latency_distribution("request_latency", 0, 60, {"request": "req"})
    assert dist.count == sum(gen.generated.values())  # nothing lost


def test_utilization_gauge_reflects_load():
    spec = two_tier_spec(work_back=0.015)
    app = make_app(spec, replicas=1)
    gen = LoadGenerator(
        app,
        pattern=ConstantLoad(80.0),  # back: 80 * 15ms = 1.2 busy cores of 2
        mix=RequestMix({"req": 1.0}),
        streams=RandomStreams(seed=7),
        stop_at_s=120.0,
    )
    gen.start()
    app.env.run(until=120)
    util = app.hub.gauge_mean("cpu_utilization", 30, 120, {"service": "back"})
    assert 0.35 <= util <= 0.85


def test_speed_factor_throttling_increases_latency():
    app = make_app(two_tier_spec(work_back=0.01), replicas=2)
    gen = LoadGenerator(
        app,
        pattern=ConstantLoad(50.0),
        mix=RequestMix({"req": 1.0}),
        streams=RandomStreams(seed=8),
        stop_at_s=200.0,
    )
    gen.start()
    app.env.run(until=100)
    before = app.hub.latency_distribution(
        "request_latency", 20, 100, {"request": "req"}
    ).percentile(99)
    app.services["back"].set_speed_factor(0.2)
    app.env.run(until=200)
    after = app.hub.latency_distribution(
        "request_latency", 120, 200, {"request": "req"}
    ).percentile(99)
    assert after > before * 2


def test_mean_cpu_allocation_accounting():
    app = make_app(two_tier_spec(), replicas=2)
    app.env.run(until=100)
    # 2 replicas x 2 cpus x 2 services
    assert app.mean_cpu_allocation(20, 100) == pytest.approx(8.0, abs=0.5)


def test_requests_wait_for_a_replica_then_keep_round_robin():
    spec = AppSpec(
        name="solo",
        services=(
            ServiceSpec("svc", cpus_per_replica=1, handlers={"req": Constant(0.01)}),
        ),
        request_classes=(
            RequestClass("req", Call("svc"), SlaSpec(percentile=99.0, target_s=1.0)),
        ),
    )
    app = make_app(spec, replicas=0)
    service = app.services["svc"]
    assert service.replicas == 0
    waiting = [app.submit("req") for _ in range(4)]
    app.env.run(until=app.env.now + 1.0)
    assert all(request.completion_time is None for request, _done in waiting)

    service.scale_to(2)
    for _request, done in waiting:
        app.env.run(until=done)
    startup = spec.services[0].startup_delay_s
    assert all(request.latency >= startup for request, _done in waiting)
    # Served by the picker the waiters fell back to, then by the inline
    # pick once replicas run: one rotation shared by both paths.
    later = [app.submit("req") for _ in range(2)]
    for _request, done in later:
        app.env.run(until=done)
    assert all(request.latency < 0.1 for request, _done in later)
    assert service._rr == 6
    busy = sorted(replica.busy_time for replica in service._running)
    assert busy == pytest.approx([0.03, 0.03])
