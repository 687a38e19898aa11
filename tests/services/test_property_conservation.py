"""Property-based tests: request conservation over random topologies.

For arbitrary small call trees mixing all three communication modes,
every submitted request's tree must complete, end-to-end latency must be
at least the critical-path work, and telemetry counters must balance.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.topology import AppSpec, Application, RequestClass, SlaSpec
from repro.cluster import ClusterOptions
from repro.net.messages import Call, CallMode
from repro.services.spec import ServiceSpec
from repro.sim import Constant

MODES = [CallMode.RPC, CallMode.EVENT, CallMode.MQ]


@st.composite
def call_trees(draw):
    """A random tree over services s0..s3 with depth <= 3."""
    n_services = draw(st.integers(2, 4))

    def subtree(depth, service_pool):
        service = draw(st.sampled_from(service_pool))
        children = ()
        if depth < 2 and draw(st.booleans()):
            remaining = [s for s in service_pool if s != service]
            if remaining:
                children = tuple(
                    subtree(depth + 1, remaining)
                    for _ in range(draw(st.integers(1, 2)))
                )
        return Call(
            service,
            draw(st.sampled_from(MODES)),
            children,
            repeat=draw(st.integers(1, 2)),
        )

    pool = [f"s{i}" for i in range(n_services)]
    root = Call(pool[0], CallMode.RPC, subtree(1, pool[1:]).children or (), repeat=1)
    # Root must have at least itself; rebuild with a guaranteed child mix.
    child = subtree(1, pool[1:])
    root = Call(pool[0], CallMode.RPC, (child,))
    return n_services, root


@given(data=call_trees(), n_requests=st.integers(5, 25))
@settings(max_examples=25, deadline=None)
def test_every_request_completes(data, n_requests):
    n_services, tree = data
    services = tuple(
        ServiceSpec(
            f"s{i}",
            cpus_per_replica=1,
            handlers={"r": Constant(0.002)},
            threads_per_cpu=4,
            startup_delay_s=1.0,
        )
        for i in range(n_services)
    )
    spec = AppSpec(
        "prop",
        services=services,
        request_classes=(RequestClass("r", tree, SlaSpec(99, 30.0)),),
    )
    app = Application(
        spec, 0, initial_replicas=1,
        cluster_options=ClusterOptions(nodes=1, node_cpus=64, node_memory_gb=128),
    )
    env = app.env
    env.run(until=5)
    requests = []
    dones = []
    for _ in range(n_requests):
        request, done = app.submit("r")
        requests.append(request)
        dones.append(done)
        env.run(until=env.now + 0.01)
    env.run(until=env.now + 60)

    # 1. Conservation: every tree completed.
    assert all(d.processed for d in dones)
    # 2. Latency lower bound: at least the work along the critical path
    #    (one handler execution of 2 ms).
    for request in requests:
        assert request.latency >= 0.002 - 1e-9
    # 3. Telemetry balance: client counters match submissions and every
    #    access produced a service-level request record.
    total_clients = app.hub.counter_total(
        "client_requests_total", 0, env.now, {"request": "r"}
    )
    assert total_clients == n_requests
    access = spec.request_classes[0].access_counts()
    for service, count in access.items():
        recorded = app.hub.counter_total(
            "requests_total", 0, env.now, {"service": service, "request": "r"}
        )
        assert recorded == count * n_requests
    # 4. Latency samples: one end-to-end record per request.
    dist = app.hub.latency_distribution("request_latency", 0, env.now, {"request": "r"})
    assert dist.count == n_requests
