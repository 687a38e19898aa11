"""Tests for deployments, pod lifecycle and the cluster facade."""

import pytest

from repro.cluster import Cluster, Node, PodState
from repro.errors import SchedulingError
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def cluster(env):
    return Cluster(env, nodes=[Node("a", 32, 64), Node("b", 32, 64)])


def test_initial_replicas_become_running(env, cluster):
    dep = cluster.create_deployment("svc", cpus_per_replica=2, replicas=3)
    assert dep.replicas == 0  # still pending
    env.run(until=10)
    assert dep.replicas == 3
    assert dep.allocated_cpus == 6


def test_startup_delay_respected(env, cluster):
    dep = cluster.create_deployment(
        "svc", cpus_per_replica=1, replicas=1, startup_delay_s=7.0
    )
    env.run(until=6.9)
    assert dep.replicas == 0
    env.run(until=7.1)
    assert dep.replicas == 1


def test_running_callback_invoked(env, cluster):
    seen = []
    cluster.create_deployment(
        "svc", cpus_per_replica=1, replicas=2, on_pod_running=seen.append
    )
    env.run(until=10)
    assert len(seen) == 2
    assert all(p.state == PodState.RUNNING for p in seen)


def test_scale_up_and_down(env, cluster):
    dep = cluster.create_deployment("svc", cpus_per_replica=2, replicas=2)
    env.run(until=10)
    cluster.scale("svc", 5)
    env.run(until=20)
    assert dep.replicas == 5
    cluster.scale("svc", 1)
    env.run(until=30)
    assert dep.replicas == 1
    assert dep.allocated_cpus == 2


def test_scale_down_waits_for_drain(env, cluster):
    stopping = []
    dep = cluster.create_deployment(
        "svc",
        cpus_per_replica=4,
        replicas=2,
        on_pod_stopping=stopping.append,
    )
    env.run(until=10)
    cluster.scale("svc", 1)
    env.run(until=11)
    # Pod resources held while draining.
    assert len(stopping) == 1
    assert dep.allocated_cpus == 8
    stopping[0].drained.succeed()
    env.run(until=12)
    assert dep.allocated_cpus == 4


def test_scale_down_cancels_pending_first(env, cluster):
    dep = cluster.create_deployment(
        "svc", cpus_per_replica=1, replicas=1, startup_delay_s=5.0
    )
    env.run(until=10)
    dep.scale_to(3)  # two new pending pods
    env.run(until=11)  # still pending (delay 5)
    dep.scale_to(1)
    env.run(until=30)
    assert dep.replicas == 1
    assert dep.allocated_cpus == 1


def test_negative_scale_rejected(env, cluster):
    cluster.create_deployment("svc", cpus_per_replica=1)
    with pytest.raises(SchedulingError):
        cluster.scale("svc", -1)


def test_duplicate_deployment_rejected(env, cluster):
    cluster.create_deployment("svc", cpus_per_replica=1)
    with pytest.raises(SchedulingError):
        cluster.create_deployment("svc", cpus_per_replica=1)


def test_unknown_deployment_rejected(cluster):
    with pytest.raises(SchedulingError):
        cluster.scale("nope", 1)


def test_cluster_capacity_enforced(env):
    cluster = Cluster(env, nodes=[Node("a", 4, 8)])
    with pytest.raises(SchedulingError):
        cluster.create_deployment("svc", cpus_per_replica=2, replicas=3)


def test_allocated_cpus_totals(env, cluster):
    cluster.create_deployment("a", cpus_per_replica=2, replicas=2)
    cluster.create_deployment("b", cpus_per_replica=3, replicas=1)
    env.run(until=10)
    assert cluster.allocated_cpus("a") == 4
    assert cluster.allocated_cpus("b") == 3
    assert cluster.allocated_cpus() == 7
    assert cluster.free_cpus() == 64 - 7


def test_fractional_cpu_rejected(env, cluster):
    with pytest.raises(SchedulingError):
        cluster.create_deployment("svc", cpus_per_replica=0)
