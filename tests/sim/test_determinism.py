"""Engine determinism regression: the contract ursalint exists to protect.

Two runs of the social-network application with the same seed must
produce *byte-identical* event traces -- every event fires at the same
simulated time, with the same scheduling sequence number, in the same
order.  A different seed must diverge.  This is the executable form of
the engine's promise ("runs with the same seed are exactly
reproducible") that every benchmark shape target and t-test relies on.
"""

from repro.apps.social_network import build_social_network_spec
from repro.apps.topology import Application
from repro.cluster.cluster import ClusterOptions
from repro.sim.engine import Environment, SimulationError
from repro.sim.random import RandomStreams
from repro.sim.resources import Resource
from repro.workload.defaults import social_network_mix
from repro.workload.generator import LoadGenerator
from repro.workload.patterns import ConstantLoad

import pytest


def _run_social_network(seed: int, until: float = 20.0) -> list[tuple]:
    """Every trace row of the run: ``(when, priority, seq, event type)``."""
    rows: list[tuple] = []
    app = Application(
        build_social_network_spec(),
        seed,
        initial_replicas=1,
        trace=rows.extend,
        cluster_options=ClusterOptions(nodes=4),
    )
    env = app.env
    generator = LoadGenerator(
        app,
        pattern=ConstantLoad(20.0),
        mix=social_network_mix(),
        streams=RandomStreams(seed + 7),
    )
    generator.start()
    env.run(until=until)
    assert sum(generator.generated.values()) > 0, "load generator produced nothing"
    return rows


def test_same_seed_is_byte_identical():
    assert _run_social_network(seed=42) == _run_social_network(seed=42)


def test_different_seed_diverges():
    assert _run_social_network(seed=42) != _run_social_network(seed=43)


def test_release_without_acquire_raises():
    env = Environment()
    resource = Resource(env, capacity=2)
    with pytest.raises(SimulationError, match="without matching acquire"):
        resource.release()


def test_release_more_than_acquired_raises():
    env = Environment()
    resource = Resource(env, capacity=2)

    def proc(env, resource):
        yield resource.acquire()
        try:
            yield env.timeout(1.0)
        finally:
            resource.release()

    env.process(proc(env, resource))
    env.run()
    with pytest.raises(SimulationError, match="without matching acquire"):
        resource.release()
