"""Unit tests for simulation resources (thread pools, stores)."""

import pytest

from repro.sim import Environment, PriorityStore, Resource, SimulationError, Store


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    granted = []

    def worker(env, name):
        yield res.acquire()
        granted.append((env.now, name))
        yield env.timeout(10)
        res.release()

    for name in "abc":
        env.process(worker(env, name))
    env.run()
    # a and b start immediately; c waits for a release at t=10.
    assert granted == [(0.0, "a"), (0.0, "b"), (10.0, "c")]


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def worker(env, name, start):
        yield env.timeout(start)
        yield res.acquire()
        order.append(name)
        yield env.timeout(5)
        res.release()

    for i, name in enumerate("abcd"):
        env.process(worker(env, name, start=i * 0.1))
    env.run()
    assert order == ["a", "b", "c", "d"]


def test_resource_counts():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env):
        yield res.acquire()
        yield env.timeout(10)
        res.release()

    def waiter(env):
        yield env.timeout(1)
        yield res.acquire()
        res.release()

    env.process(holder(env))
    env.process(waiter(env))
    env.run(until=5)
    assert res._in_use == 1
    assert res.queue_len == 1
    env.run()
    assert res._in_use == 0
    assert res.queue_len == 0


def test_release_without_acquire_rejected():
    env = Environment()
    res = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_capacity_validation():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_resize_grow_wakes_waiters():
    env = Environment()
    res = Resource(env, capacity=1)
    granted = []

    def worker(env, name):
        yield res.acquire()
        granted.append((env.now, name))
        yield env.timeout(100)
        res.release()

    def grower(env):
        yield env.timeout(5)
        res.resize(3)

    for name in "abc":
        env.process(worker(env, name))
    env.process(grower(env))
    env.run(until=50)
    assert granted == [(0.0, "a"), (5.0, "b"), (5.0, "c")]


def test_resize_shrink_does_not_preempt():
    env = Environment()
    res = Resource(env, capacity=2)

    def worker(env):
        yield res.acquire()
        yield env.timeout(10)
        res.release()

    env.process(worker(env))
    env.process(worker(env))
    env.run(until=1)
    res.resize(1)
    assert res._in_use == 2  # existing holders keep their slots
    env.run()
    assert res._in_use == 0


def test_store_put_get_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def producer(env):
        for i in range(3):
            yield env.timeout(1)
            yield store.put(i)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            got.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == [(1.0, 0), (2.0, 1), (3.0, 2)]


def test_store_get_blocks_until_item():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append((env.now, item))

    def producer(env):
        yield env.timeout(9)
        yield store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(9.0, "x")]


def test_bounded_store_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    events = []

    def producer(env):
        yield store.put("a")
        events.append(("put-a", env.now))
        yield store.put("b")
        events.append(("put-b", env.now))

    def consumer(env):
        yield env.timeout(5)
        item = yield store.get()
        events.append((f"got-{item}", env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("put-a", 0.0) in events
    assert ("put-b", 5.0) in events  # blocked until consumer freed a slot


def test_try_put_respects_capacity():
    env = Environment()
    store = Store(env, capacity=2)
    assert store.try_put(1)
    assert store.try_put(2)
    assert not store.try_put(3)
    assert len(store) == 2


def test_priority_store_orders_items():
    env = Environment()
    store = PriorityStore(env)
    got = []

    def producer(env):
        yield store.put((2, 0, "low"))
        yield store.put((1, 1, "high"))
        yield store.put((1, 2, "high2"))

    def consumer(env):
        yield env.timeout(1)
        for _ in range(3):
            item = yield store.get()
            got.append(item[2])

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert got == ["high", "high2", "low"]


def test_priority_store_waiting_getter_gets_first_item():
    env = Environment()
    store = PriorityStore(env)
    got = []

    def consumer(env):
        item = yield store.get()
        got.append(item)

    def producer(env):
        yield env.timeout(1)
        yield store.put((5, 0, "only"))

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == [(5, 0, "only")]


def test_store_len_and_items_view():
    env = Environment()
    store = Store(env)
    store.try_put("a")
    store.try_put("b")
    assert len(store) == 2
    assert store.items == ["a", "b"]
