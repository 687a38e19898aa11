"""Semantic tests for thread/CPU pools and call-mode mechanics."""

import pytest

from repro.apps.topology import AppSpec, Application, RequestClass, SlaSpec
from repro.cluster import ClusterOptions
from repro.net.messages import Call, CallMode
from repro.services.spec import ServiceSpec
from repro.sim import Constant


def build(spec, seed=0, replicas=1):
    app = Application(
        spec, seed, initial_replicas=replicas,
        cluster_options=ClusterOptions(nodes=1, node_cpus=64, node_memory_gb=128),
    )
    app.env.run(until=10)
    return app


def two_tier(mode, front_threads=2, back_work=0.1):
    return AppSpec(
        "semantics",
        services=(
            ServiceSpec(
                "front",
                cpus_per_replica=1,
                handlers={"r": Constant(0.001)},
                threads_per_cpu=front_threads,
                daemon_pool_factor=2.0,
            ),
            ServiceSpec(
                "back", cpus_per_replica=1, handlers={"r": Constant(back_work)},
                threads_per_cpu=8,
            ),
        ),
        request_classes=(
            RequestClass("r", Call("front", CallMode.RPC, (Call("back", mode),)),
                         SlaSpec(99, 60.0)),
        ),
    )


def test_nested_rpc_holds_thread_during_downstream_wait():
    """With 2 front threads and a 100ms backend, at most 2 requests are in
    flight at the front even though its own work is 1ms."""
    app = build(two_tier(CallMode.RPC, front_threads=2))
    env = app.env
    for _ in range(6):
        app.submit("r")
    env.run(until=10.05)  # mid-flight
    front = app.services["front"]
    replica = front._running[0]
    assert replica.threads.in_use == 2
    assert replica.threads.queue_len == 4
    # The front's CPU is idle while its threads block downstream.
    assert replica.cpu.in_use == 0


def test_mq_publish_releases_thread_immediately():
    """MQ edges never hold the producer's thread on the consumer."""
    app = build(two_tier(CallMode.MQ, front_threads=2))
    env = app.env
    dones = [app.submit("r")[1] for _ in range(6)]
    env.run(until=10.1)
    front = app.services["front"]
    replica = front._running[0]
    # All six requests passed through the front already (1 ms work each).
    assert replica.threads.in_use == 0
    back = app.services["back"]
    assert back.queue.published == 6
    env.run(until=12)
    assert all(d.processed for d in dones)


def test_event_rpc_daemon_pool_bounds_dispatch():
    """Event-driven dispatch blocks once the daemon pool is exhausted."""
    app = build(two_tier(CallMode.EVENT, front_threads=8))
    env = app.env
    for _ in range(10):
        app.submit("r")
    env.run(until=10.05)
    front = app.services["front"]
    replica = front._running[0]
    # Daemon pool = 1 cpu x 8 threads x 2.0 = 16 daemons: all 10 in-flight
    # requests hold daemons (waiting on the 100 ms backend).
    assert replica.daemons.in_use == 10
    env.run(until=15)
    assert replica.daemons.in_use == 0


def test_cpu_contention_serialises_processing():
    """One core, three 100ms jobs arriving together: finish ~100/200/300ms."""
    spec = AppSpec(
        "cpu",
        services=(
            ServiceSpec("svc", cpus_per_replica=1, handlers={"r": Constant(0.1)},
                        threads_per_cpu=8),
        ),
        request_classes=(RequestClass("r", Call("svc"), SlaSpec(99, 10)),),
    )
    app = build(spec)
    env = app.env
    requests = [app.submit("r")[0] for _ in range(3)]
    env.run(until=15)
    latencies = sorted(r.latency for r in requests)
    assert latencies[0] == pytest.approx(0.1, abs=0.02)
    assert latencies[1] == pytest.approx(0.2, abs=0.02)
    assert latencies[2] == pytest.approx(0.3, abs=0.02)


def test_service_latency_excludes_downstream_wait():
    """The front's recorded service latency is ~its own work, not the
    backend's 100 ms."""
    app = build(two_tier(CallMode.RPC))
    env = app.env
    _, done = app.submit("r")
    env.run(until=done)
    env.run(until=60)
    front_lat = app.hub.latency_distribution(
        "service_latency", 0, 60, {"service": "front", "request": "r"}
    )
    assert front_lat.max < 0.02  # 1ms work + network legs
    e2e = app.hub.latency_distribution("request_latency", 0, 60, {"request": "r"})
    assert e2e.min > 0.1  # but the request did take the backend's 100ms


def test_repeat_calls_execute_sequentially():
    spec = AppSpec(
        "rep",
        services=(
            ServiceSpec("a", cpus_per_replica=1, handlers={"r": Constant(0.001)},
                        threads_per_cpu=8),
            ServiceSpec("b", cpus_per_replica=4, handlers={"r": Constant(0.05)},
                        threads_per_cpu=8),
        ),
        request_classes=(
            RequestClass("r", Call("a", children=(Call("b", repeat=4),)),
                         SlaSpec(99, 10)),
        ),
    )
    app = build(spec)
    request, done = app.submit("r")
    app.env.run(until=done)
    # Four sequential 50 ms calls despite b having 4 idle cores.
    assert request.latency >= 0.2


def test_all_submitted_requests_complete_under_churn():
    """Conservation: nothing is lost across scale up/down churn."""
    spec = two_tier(CallMode.RPC, front_threads=8, back_work=0.01)
    app = build(spec, replicas=2)
    env = app.env
    submitted = []
    for k in range(300):
        submitted.append(app.submit("r")[1])
        env.run(until=env.now + 0.05)
        if k == 100:
            app.scale("back", 4)
        if k == 200:
            app.scale("back", 1)
    env.run(until=env.now + 30)
    assert all(d.processed for d in submitted)
