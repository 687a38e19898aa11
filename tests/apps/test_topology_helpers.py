"""Tests for RequestClass/AppSpec helpers and windowed accounting."""

import pytest

from repro.apps.topology import Application, AppSpec, RequestClass, SlaSpec
from repro.cluster import ClusterOptions
from repro.errors import ConfigurationError, TopologyError
from repro.net.messages import Call
from repro.services.spec import ServiceSpec
from repro.sim import Constant


def test_access_counts_multiplicative():
    rc = RequestClass(
        "r",
        Call(
            "a",
            children=(
                Call("b", repeat=2, children=(Call("c", repeat=3),)),
                Call("c"),
            ),
        ),
        SlaSpec(99, 1.0),
    )
    counts = rc.access_counts()
    assert counts == {"a": 1, "b": 2, "c": 7}  # 2*3 via b, +1 direct


def test_sla_spec_validation():
    with pytest.raises(ConfigurationError):
        SlaSpec(0, 1.0)
    with pytest.raises(ConfigurationError):
        SlaSpec(100, 1.0)
    with pytest.raises(ConfigurationError):
        SlaSpec(99, 0)


def test_with_service_replaces_spec():
    spec = AppSpec(
        "app",
        services=(
            ServiceSpec("a", cpus_per_replica=1, handlers={"r": Constant(0.01)}),
        ),
        request_classes=(RequestClass("r", Call("a"), SlaSpec(99, 1.0)),),
    )
    replacement = ServiceSpec("a", cpus_per_replica=2, handlers={"r": Constant(0.02)})
    updated = spec.with_service(replacement)
    assert updated.service("a").cpus_per_replica == 2
    assert spec.service("a").cpus_per_replica == 1  # original untouched
    with pytest.raises(TopologyError):
        spec.with_service(
            ServiceSpec("ghost", cpus_per_replica=1, handlers={"r": Constant(1)})
        )


def test_duplicate_names_rejected():
    svc = ServiceSpec("a", cpus_per_replica=1, handlers={"r": Constant(0.01)})
    rc = RequestClass("r", Call("a"), SlaSpec(99, 1.0))
    with pytest.raises(ConfigurationError):
        AppSpec("app", services=(svc, svc), request_classes=(rc,))
    with pytest.raises(ConfigurationError):
        AppSpec("app", services=(svc,), request_classes=(rc, rc))


def test_windowed_violation_rate_handles_p50_sla():
    """A p50 SLA must be evaluated as a windowed percentile check."""
    spec = AppSpec(
        "app",
        services=(
            ServiceSpec("a", cpus_per_replica=1, handlers={"r": Constant(0.1)}),
        ),
        # Median SLA of 150 ms: every request takes ~100 ms, so the p50
        # check passes even though some requests would exceed a naive
        # per-request threshold.
        request_classes=(
            RequestClass("r", Call("a"), SlaSpec(50.0, 0.150)),
        ),
    )
    app = Application(
        spec, 0, initial_replicas=1,
        cluster_options=ClusterOptions(nodes=1, node_cpus=16, node_memory_gb=32),
    )
    env = app.env
    env.run(until=10)
    for _ in range(40):
        app.submit("r")
        env.run(until=env.now + 1.0)
    env.run(until=120)
    assert app.windowed_violation_rate(0, 120) == 0.0


def test_request_ids_are_run_local_and_sequential():
    """Ids come from the Application's own counter (0, 1, 2, ...).

    Run-local assignment keeps ids deterministic for any process/pool
    layout -- the old module-level ``itertools.count`` made them depend
    on how many requests *other* runs in the same process had created.
    """
    spec = AppSpec(
        "app",
        services=(
            ServiceSpec("a", cpus_per_replica=1, handlers={"r": Constant(0.01)}),
        ),
        request_classes=(RequestClass("r", Call("a"), SlaSpec(99, 1.0)),),
    )

    def fresh_app():
        app = Application(
            spec, 0, initial_replicas=1,
            cluster_options=ClusterOptions(nodes=1, node_cpus=16, node_memory_gb=32),
        )
        env = app.env
        env.run(until=1)
        return app

    first = fresh_app()
    ids = [first.submit("r")[0].request_id for _ in range(5)]
    assert ids == [0, 1, 2, 3, 4]
    # A second application starts from 0 again: no cross-run bleed.
    assert fresh_app().submit("r")[0].request_id == 0


def test_mean_cpu_allocation_sums_services():
    spec = AppSpec(
        "app",
        services=(
            ServiceSpec("a", cpus_per_replica=2, handlers={"r": Constant(0.01)}),
            ServiceSpec("b", cpus_per_replica=3, handlers={"r": Constant(0.01)}),
        ),
        request_classes=(
            RequestClass("r", Call("a", children=(Call("b"),)), SlaSpec(99, 1.0)),
        ),
    )
    app = Application(
        spec, 0, initial_replicas=1,
        cluster_options=ClusterOptions(nodes=1, node_cpus=16, node_memory_gb=32),
    )
    env = app.env
    env.run(until=100)
    assert app.mean_cpu_allocation(20, 100) == pytest.approx(5.0, abs=0.3)


def test_rpc_called_services_excludes_mq_only():
    from repro.apps import build_social_network_spec, build_video_pipeline_spec

    social = build_social_network_spec().rpc_called_services()
    # MQ-consumed ML services are not RPC-called...
    assert "sentiment-ml" not in social
    assert "object-detect-ml" not in social
    assert "timeline-update" not in social  # MQ root
    # ...but RPC-chained services are, including datastores.
    for name in ("frontend", "image-store", "post-storage", "redis-post",
                 "social-graph"):
        assert name in social
    # Sorted tuple: deterministic to iterate, no SIM003 hazard.
    assert social == tuple(sorted(social))
    # The pure-MQ pipeline has no RPC-called services at all.
    assert build_video_pipeline_spec().rpc_called_services() == ()
