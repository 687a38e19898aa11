"""Integration tests for Firm's trainer and deployment controller."""

import copy
import hashlib
import math

import pytest

from repro.apps.topology import Application
from repro.baselines.firm import FirmManager
from repro.baselines.firm.controller import MAX_REPLICAS
from repro.cluster import ClusterOptions
from repro.errors import ConfigurationError
from repro.sim import RandomStreams
from repro.workload import ConstantLoad, LoadGenerator, RequestMix
from tests.baselines import tiny


def tiny_spec():
    return tiny.tiny_spec(tiny.FIRM_SLA_S)


def test_training_returns_agent_per_service(firm_trained):
    agents, sim_time = firm_trained
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


def test_deployment_with_trained_agents(firm_trained):
    # Deployment keeps training the agents: work on a copy.
    agents = copy.deepcopy(firm_trained[0])
    app = Application(
        tiny_spec(), 53, initial_replicas=2,
        cluster_options=ClusterOptions(nodes=1, node_cpus=64, node_memory_gb=128),
    )
    env = app.env
    manager = FirmManager(app, agents)
    manager.initialize()
    manager.start()
    LoadGenerator(app, ConstantLoad(60.0), RequestMix({"req": 1.0}),
                  RandomStreams(54), stop_at_s=300).start()
    env.run(until=300)
    assert manager.decisions > 0
    assert app.services["work"].deployment.desired_replicas >= 1


def test_manager_requires_agent_per_service(firm_trained):
    agents, _ = firm_trained
    app = Application(
        tiny_spec(), 55, initial_replicas=1,
        cluster_options=ClusterOptions(nodes=1, node_cpus=64, node_memory_gb=128),
    )
    with pytest.raises(ConfigurationError):
        FirmManager(app, {"front": agents["front"]})


def test_timing_probes(firm_trained):
    # The two paths Table VI times: one actor decision per service and
    # one online update per agent.  The update trains: work on a copy.
    agents = copy.deepcopy(firm_trained[0])
    app = Application(
        tiny_spec(), 56, initial_replicas=1,
        cluster_options=ClusterOptions(nodes=1, node_cpus=64, node_memory_gb=128),
    )
    env = app.env
    env.run(until=30)
    manager = FirmManager(app, agents)
    for service in agents:
        assert 1 <= manager.decide(service, 0.0, env.now) <= MAX_REPLICAS
    for agent in agents.values():
        assert len(agent.buffer) >= 32  # a full batch to train on
        loss = agent.update()
        assert math.isfinite(loss) and loss >= 0
