"""Timeout freelist: reuse accounting, refcount guard, corruption checks.

The engine recycles processed :class:`Timeout` objects through a
per-environment freelist (``engine.py``).  These tests pin the safety
contract around that optimization:

* recycling actually happens (the allocation probe's reuse counters are
  the perf gate; here we check the mechanism, not the rate);
* a timeout the simulation still *holds* is never recycled -- the
  refcount guard keeps live handles out of the pool;
* a stale handle that mutates a pooled timeout is detected loudly at
  reuse time instead of corrupting the schedule;
* the generation counter distinguishes reuses of the same object;
* on a real deployment run, nearly every timeout is a reuse: a drain
  loop that kept a popped or peeked schedule entry in a local would fail
  the refcount guard for most of them.
"""

import pytest

from repro.apps.topology import Application
from repro.sim import RandomStreams
from repro.sim.engine import Environment, SimulationError, Timeout
from repro.workload import ConstantLoad, LoadGenerator, RequestMix
from tests.baselines import tiny


def _spin(env: Environment, rounds: int) -> None:
    def looper(env):
        for _ in range(rounds):
            yield env.timeout(0.1)

    env.process(looper(env))
    env.run()


def test_pool_reuses_processed_timeouts():
    env = Environment()
    _spin(env, rounds=50)
    stats = env.timeout_pool_stats()
    assert stats["reuses"] > 0
    # Steady-state: one looper needs one in-flight timeout, so after the
    # first allocation every subsequent round is served from the pool.
    assert stats["allocs"] <= 2
    assert stats["allocs"] + stats["reuses"] == 50


def test_pool_stats_shape():
    env = Environment()
    stats = env.timeout_pool_stats()
    assert stats == {"allocs": 0, "reuses": 0, "pooled": 0}


def test_held_timeout_is_not_recycled():
    """A handle the test still references must stay out of the pool."""
    env = Environment()
    held: list[Timeout] = []

    def holder(env):
        t = env.timeout(0.1)
        held.append(t)  # external reference outlives processing
        yield t
        yield env.timeout(0.1)

    env.process(holder(env))
    env.run()
    assert held[0].processed
    # The held timeout was not pooled, so a fresh timeout is either a
    # new allocation or a recycle of some *other* object.
    fresh = env.timeout(1.0)
    assert fresh is not held[0]


def test_generation_counter_increments_on_reuse():
    env = Environment()
    _spin(env, rounds=10)
    assert env.timeout_pool_stats()["pooled"] >= 1
    recycled = env.timeout(0.5)
    assert recycled._gen >= 1


def test_stale_mutation_is_detected_at_reuse():
    """Corrupting a pooled timeout raises at the next reuse."""
    env = Environment()
    _spin(env, rounds=10)
    assert env.timeout_pool_stats()["pooled"] >= 1
    # Simulate a buggy caller mutating a recycled handle it should have
    # forgotten: resurrect the pooled object's callbacks list.
    pooled = env._pool[-1]
    pooled.callbacks.append(lambda event: None)
    with pytest.raises(SimulationError, match="freelist corrupted"):
        env.timeout(0.5)


def test_negative_delay_rejected_on_both_paths():
    env = Environment()
    with pytest.raises(SimulationError, match="negative timeout delay"):
        env.timeout(-1.0)  # fresh-allocation path
    _spin(env, rounds=10)
    assert env.timeout_pool_stats()["pooled"] >= 1
    with pytest.raises(SimulationError, match="negative timeout delay"):
        env.timeout(-1.0)  # pool-reuse path


def test_direct_construction_allocates_and_schedules():
    env = Environment(initial_time=1.0)
    with pytest.raises(SimulationError, match="negative timeout delay"):
        Timeout(env, -1.0)
    timeout = Timeout(env, 2.5, value="v")
    assert timeout.triggered and not timeout.processed
    assert env.timeout_pool_stats()["allocs"] == 1
    assert env.run(until=timeout) == "v"
    assert env.now == 3.5


def test_timeout_at_in_the_past_rejected_on_both_paths():
    env = Environment(initial_time=5.0)
    with pytest.raises(SimulationError, match="in the past"):
        env.timeout_at(4.0)  # fresh-allocation path
    assert env.timeout_pool_stats() == {"allocs": 0, "reuses": 0, "pooled": 0}
    _spin(env, rounds=10)
    pooled = env.timeout_pool_stats()
    assert pooled["pooled"] >= 1
    with pytest.raises(SimulationError, match="in the past"):
        env.timeout_at(env.now - 0.5)  # pool-reuse path
    assert env.timeout_pool_stats() == pooled


def test_timeout_at_shares_the_freelist_with_timeout():
    """``timeout_at`` draws from and feeds the same pool and counters."""
    env = Environment()

    def looper(env):
        for i in range(20):
            if i % 2:
                yield env.timeout(0.1)
            else:
                yield env.timeout_at(env.now + 0.1)

    env.process(looper(env))
    env.run()
    stats = env.timeout_pool_stats()
    assert stats["allocs"] <= 2
    assert stats["allocs"] + stats["reuses"] == 20
    recycled = env.timeout_at(env.now + 1.0)
    assert recycled._gen >= 1
    assert env.timeout_pool_stats()["reuses"] == stats["reuses"] + 1


def test_recycled_runs_match_fresh_runs():
    """Pooling is invisible to results: values and times are unchanged."""
    env = Environment()
    observed: list[tuple[float, object]] = []

    def worker(env):
        for i in range(30):
            value = yield env.timeout(0.25, value=i)
            observed.append((env.now, value))

    env.process(worker(env))
    env.run()
    assert observed == [(0.25 * (i + 1), i) for i in range(30)]


def test_real_run_recycles_nearly_every_timeout():
    app = Application(tiny.tiny_spec(0.3), 5, initial_replicas=1)
    LoadGenerator(
        app, ConstantLoad(60.0), RequestMix({"req": 1.0}), RandomStreams(6),
        stop_at_s=60.0,
    ).start()
    app.env.run(until=60.0)
    stats = app.env.timeout_pool_stats()
    assert stats["reuses"] > 10_000
    assert stats["reuses"] / (stats["allocs"] + stats["reuses"]) >= 0.99
