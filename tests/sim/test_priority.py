"""Tests for priority-aware resource granting."""

from repro.sim import Environment, Resource


def test_lower_priority_value_granted_first():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        yield res.acquire()
        yield env.timeout(10)
        res.release()

    def waiter(env, name, priority, start):
        yield env.timeout(start)
        yield res.acquire(priority=priority)
        order.append(name)
        res.release()

    env.process(holder(env))
    env.process(waiter(env, "low", 5, 1.0))
    env.process(waiter(env, "high", 0, 2.0))  # arrives later, jumps queue
    env.run()
    assert order == ["high", "low"]


def test_fifo_within_priority_level():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def holder(env):
        yield res.acquire()
        yield env.timeout(5)
        res.release()

    def waiter(env, name, start):
        yield env.timeout(start)
        yield res.acquire(priority=1)
        order.append(name)
        res.release()

    env.process(holder(env))
    for i, name in enumerate("abc"):
        env.process(waiter(env, name, 1.0 + i * 0.1))
    env.run()
    assert order == ["a", "b", "c"]
