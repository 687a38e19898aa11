"""Integration tests for Firm's trainer and deployment controller."""

import hashlib

import pytest

from repro.apps.topology import AppSpec, Application, RequestClass, SlaSpec
from repro.baselines.firm import FirmManager, train_firm_agents
from repro.cluster import Cluster, Node
from repro.errors import ConfigurationError
from repro.net.messages import Call, CallMode
from repro.services.spec import ServiceSpec
from repro.sim import Environment, LogNormal, RandomStreams
from repro.workload import ConstantLoad, LoadGenerator, RequestMix


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
                         SlaSpec(99.0, 0.15)),
        ),
    )


@pytest.fixture(scope="module")
def trained():
    return train_firm_agents(
        tiny_spec(), RequestMix({"req": 1.0}), rps=60.0,
        streams=RandomStreams(51), n_samples=40, window_s=15.0,
    )


def test_training_returns_agent_per_service(trained):
    agents, sim_time = trained
    assert set(agents) == {"front", "work"}
    assert sim_time > 0
    # Agents actually learned from transitions.
    assert all(len(a.buffer) > 10 for a in agents.values())
    assert all(a.updates > 0 for a in agents.values())
    # Pinned: the training run reproduces the learned weights bit for bit.
    digest = hashlib.sha256()
    for name in sorted(agents):
        for net in (agents[name].actor, agents[name].critic):
            for weights in net.params():
                digest.update(weights.tobytes())
    assert digest.hexdigest() == (
        "e59fb93acaaafb30ee7465f781da2d3f44133d209a33d194b0ac86f83a9fd06f"
    )
    assert sim_time == 600.0


def test_deployment_with_trained_agents(trained):
    agents, _ = trained
    env = Environment()
    app = Application(
        tiny_spec(), env=env,
        cluster=Cluster(env, nodes=[Node("n", 64, 128)]),
        streams=RandomStreams(53), initial_replicas=2,
    )
    manager = FirmManager(app, agents, control_interval_s=20.0)
    manager.initialize(2)
    manager.start()
    LoadGenerator(app, ConstantLoad(60.0), RequestMix({"req": 1.0}),
                  RandomStreams(54), stop_at_s=300).start()
    env.run(until=300)
    assert manager.decisions > 0
    assert app.services["work"].deployment.desired_replicas >= 1


def test_manager_requires_agent_per_service(trained):
    agents, _ = trained
    env = Environment()
    app = Application(
        tiny_spec(), env=env,
        cluster=Cluster(env, nodes=[Node("n", 64, 128)]),
        streams=RandomStreams(55), initial_replicas=1,
    )
    with pytest.raises(ConfigurationError):
        FirmManager(app, {"front": agents["front"]})


def test_timing_probes(trained):
    agents, _ = trained
    env = Environment()
    app = Application(
        tiny_spec(), env=env,
        cluster=Cluster(env, nodes=[Node("n", 64, 128)]),
        streams=RandomStreams(56), initial_replicas=1,
    )
    env.run(until=30)
    manager = FirmManager(app, agents)
    assert manager.time_decision(repeats=3) > 0
    assert manager.time_update(iterations=1) >= 0
