"""Property-based cluster invariants under random scaling sequences."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, Node
from repro.errors import SchedulingError
from repro.sim import Environment


@given(
    ops=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 12), st.floats(0.5, 20.0)),
        min_size=1,
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None)
def test_allocation_never_exceeds_capacity(ops):
    """Random scale/advance sequences keep node accounting consistent."""
    env = Environment()
    cluster = Cluster(env, nodes=[Node("a", 24, 48), Node("b", 24, 48)])
    total_cpus = sum(node.cpus for node in cluster.nodes)
    names = ["x", "y", "z"]
    for name in names:
        cluster.create_deployment(name, cpus_per_replica=2, replicas=0,
                                  startup_delay_s=2.0)
    for which, replicas, advance in ops:
        name = names[which]
        try:
            cluster.scale(name, replicas)
        except SchedulingError:
            pass  # over capacity: rejected atomically, state unchanged
        env.run(until=env.now + advance)
        # Invariants after every step:
        total_allocated = cluster.allocated_cpus()
        assert 0 <= total_allocated <= total_cpus
        assert cluster.free_cpus() == total_cpus - total_allocated
        for node in cluster.nodes:
            assert 0 <= node.cpus_free <= node.cpus
            assert -1e9 <= node.memory_free_gb <= node.memory_gb + 1e-9
    # Quiesce: scale everything to zero and drain.
    for name in names:
        cluster.scale(name, 0)
    env.run(until=env.now + 30)
    assert cluster.allocated_cpus() == 0
    assert cluster.free_cpus() == total_cpus
