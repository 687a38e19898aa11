"""Drain equivalence: ``run()`` and a loop of ``step()`` calls agree.

:meth:`Environment.run` drains the schedule with the kernel's one loop,
``_drain``, and :meth:`Environment.step` is one iteration of that loop.
Driving a run by hand with ``step()`` must therefore pop the exact same
``(time, priority, seq)`` order and hand the trace hook the same
entries.  This file is the executable form of that promise: randomized
workloads mixing zero-delay triggers, far-future timeouts, priority
interrupts, resource contention, a bounded store's blocked puts and
handoffs, and abandoned (interrupt-detached) timeouts run through
``run()`` and through a plain ``step()`` loop, for each ``until`` form,
and the observation log (every process's observations, in global
order), the final sequence number and the next pending time must match.

The two drivers agreeing with each other does not show that they agree
with an earlier kernel, so each ``(seed, until)`` run's
:class:`RunDigest` is also pinned (``PINNED_DIGESTS``) and checked
through both drivers.  Those pins were recorded with an earlier
two-level schedule (a same-time FIFO in front of the heap); any change
to the pop order moves them.

A second randomized workload, :func:`_merge_workload`, concentrates on
the same-instant merge of the ready lane and the heap, and its digests
(``MERGE_PINNED_DIGESTS``) were recorded with a heap-only schedule, so
the lane is checked against an order it took no part in.
"""

import pytest

from repro.sim.engine import Environment, Event, Interrupt
from repro.sim.random import RandomStreams
from repro.sim.resources import Resource, Store
from repro.sim.trace import EventTraceRecorder, RunDigest

#: The ``run(until=...)`` horizon of the ``"time"`` form.
HORIZON = 20.0


def _random_workload(env: Environment, seed: int, log) -> Event:
    """A randomized mix that exercises every scheduling path.

    All randomness comes from named :class:`RandomStreams` streams keyed
    only by the seed, so every environment given the same seed issues the
    identical schedule.  Processes append ``(name, now, observation)`` to
    ``log``.  Returns the interrupter process, which finishes while
    other events are still pending (the ``run(until=event)`` target).
    """
    streams = RandomStreams(seed)
    resource = Resource(env, capacity=3)
    store = Store(env, capacity=2)

    def burst(env, name, r):
        # Mixed horizons: zero-delay (same instant), near and far future.
        for i in range(30):
            roll = r.random()
            if roll < 0.25:
                delay = 0.0
            elif roll < 0.75:
                delay = r.random() * 0.5
            else:
                delay = r.random() * 40.0
            value = yield env.timeout(delay, value=i)
            log.append((name, env.now, value))

    def contender(env, name, r):
        for _ in range(12):
            yield resource.acquire(priority=int(r.integers(3)))
            log.append((name, env.now, "acquired"))
            try:
                yield env.timeout(r.random() * 0.3)
            finally:
                resource.release()

    def sleeper(env, name):
        # Interrupt target: its pending timeouts get detached mid-flight,
        # leaving callback-less entries to drain from the queue.
        for _ in range(12):
            try:
                yield env.timeout(5.0)
                log.append((name, env.now, "woke"))
            except Interrupt as intr:
                log.append((name, env.now, intr.cause))

    def interrupter(env, name, victims, r):
        for i in range(8):
            yield env.timeout(0.1 + r.random() * 3.0)
            index = int(r.integers(len(victims)))
            if victims[index].is_alive:
                victims[index].interrupt(f"poke-{i}")
                log.append((name, env.now, index))
                # The priority-0 interrupt must beat this same-time,
                # default-priority wake-up despite its later seq.
                yield env.timeout(0.0)
                log.append((name, env.now, "resumed"))
        return "interrupter done"

    def producer(env, name, r):
        # Mostly faster than the consumer, so puts block on the full
        # store; the occasional long pause drains it, so gets block too.
        for i in range(15):
            roll = r.random()
            if roll < 0.3:
                yield env.timeout(0.0)
            elif roll < 0.8:
                yield env.timeout(r.random() * 0.4)
            else:
                yield env.timeout(r.random() * 4.0)
            yield store.put((name, i))
            log.append((name, env.now, i))

    def consumer(env, name, r):
        # Gets on an empty store wait for a producer's handoff.
        for _ in range(30):
            item = yield store.get()
            log.append((name, env.now, item))
            yield env.timeout(r.random() * 0.6)

    def standing(event):
        log.append(("standing", env.now, event.value))

    victims = [env.process(sleeper(env, f"sleeper-{i}")) for i in range(3)]
    for i in range(6):
        env.process(burst(env, f"burst-{i}", streams.stream(f"burst-{i}")))
    for i in range(4):
        name = f"contender-{i}"
        env.process(contender(env, name, streams.stream(name)))
    for name in ("producer-0", "producer-1"):
        env.process(producer(env, name, streams.stream(name)))
    env.process(consumer(env, "consumer", streams.stream("consumer")))
    stop = env.process(
        interrupter(env, "interrupter", victims, streams.stream("interrupter"))
    )
    # Unconsumed far-future timeouts: a standing heap population that
    # outlives every process.
    r = streams.stream("standing")
    for k in range(200):
        env.timeout(r.random() * 50.0, value=k).callbacks.append(standing)
    return stop


#: ``RunDigest`` hex of each ``(seed, until)`` run of ``_random_workload``,
#: recorded with an earlier two-level schedule (see the module docstring).
PINNED_DIGESTS = {
    (0, "none"): "c5b8db062517e6af936b079082203449",
    (0, "time"): "80cb943a764509d343cdca71e27ca501",
    (0, "event"): "378cea7f5279045902e454ff0484d353",
    (7, "none"): "b13789cdc79e9bea0c02944970e85956",
    (7, "time"): "893180d517542a574a32c09311b8d2a5",
    (7, "event"): "1fcccfd1d52a64a5c56bfcea3572dfdc",
    (1234, "none"): "d8825977c3105308e4d17e43812e6bce",
    (1234, "time"): "63e5b005d4e1ac4a763c984fce74c8f5",
    (1234, "event"): "8134a433c13dd8f0acd9e6587aaf39df",
    (99991, "none"): "4301d4314f55480fad11921592526ffa",
    (99991, "time"): "fed39eb47668d6dde26c6e3ed7660286",
    (99991, "event"): "32a46ca339410a36a30f2f6ddc419c69",
}


def _run(env: Environment, seed: int, until: str):
    log: list[tuple] = []
    stop = _random_workload(env, seed, log)
    if until == "none":
        result = env.run()
    elif until == "time":
        result = env.run(until=HORIZON)
    else:
        result = env.run(until=stop)
    return log, result, env.now, env._seq, env.peek()


def _step_run(env: Environment, seed: int, until: str):
    """:func:`_run` driven by a plain loop of ``env.step()`` calls.

    Returns :func:`_run`'s tuple and the number of ``step()`` calls.
    Unlike ``run(until=HORIZON)``, the loop leaves the clock at the last
    processed event rather than at the horizon.
    """
    log: list[tuple] = []
    stop = _random_workload(env, seed, log)
    steps = 0
    if until == "event":
        while not stop.processed:
            env.step()
            steps += 1
        result = stop.value
    else:
        horizon = HORIZON if until == "time" else float("inf")
        while env.peek() < float("inf") and env.peek() <= horizon:
            env.step()
            steps += 1
        result = None
    return (log, result, env.now, env._seq, env.peek()), steps


def _same_run(ran, stepped, until: str) -> None:
    log, result, now, seq, next_time = ran
    assert stepped[:2] == (log, result)
    assert stepped[3:] == (seq, next_time)
    if until == "time":
        assert stepped[2] <= now == HORIZON
    else:
        assert stepped[2] == now


@pytest.mark.parametrize("until", ["none", "time", "event"])
@pytest.mark.parametrize("seed", [0, 7, 1234, 99991])
def test_inlined_and_step_drains_are_identical(seed, until):
    inlined = _run(Environment(), seed, until)
    digest, step_digest = RunDigest(), RunDigest()
    traced = _run(Environment(trace=digest), seed, until)
    stepped, steps = _step_run(Environment(trace=step_digest), seed, until)
    assert inlined == traced
    _same_run(inlined, stepped, until)
    # Each step() call processes exactly one event.
    assert steps == step_digest.events == digest.events
    assert digest.hexdigest() == PINNED_DIGESTS[(seed, until)]
    assert step_digest.hexdigest() == PINNED_DIGESTS[(seed, until)]
    log, result, now, _seq, next_time = inlined
    names = {name for name, _now, _obs in log}
    assert {
        "interrupter", "standing", "sleeper-0", "contender-0",
        "producer-0", "consumer",
    } <= names
    if until == "none":
        assert next_time == float("inf")
    elif until == "time":
        assert now == HORIZON < next_time < float("inf")
    else:
        # Stopped at the interrupter's finish, with events still pending.
        assert result == "interrupter done"
        assert now <= next_time < float("inf")


@pytest.mark.parametrize("until", ["none", "time", "event"])
@pytest.mark.parametrize("seed", [0, 1234])
def test_both_loops_feed_the_trace_hook_identically(seed, until):
    inlined, stepped = EventTraceRecorder(), EventTraceRecorder()
    ran = _run(Environment(trace=inlined), seed, until)
    step_run, steps = _step_run(Environment(trace=stepped), seed, until)
    _same_run(ran, step_run, until)
    assert len(inlined) == steps > 0
    assert inlined.entries == stepped.entries


def test_until_processed_stop_returns_at_once():
    env = Environment()

    def ticker(env):
        for _ in range(100):
            yield env.timeout(1.0)

    done = env.timeout(1.5, value="v")
    env.process(ticker(env))
    assert env.run(until=done) == "v"
    seq = env._seq
    # The stop event is already processed: nothing more is drained.
    assert env.run(until=done) == "v"
    assert (env.now, env._seq) == (1.5, seq)


def test_seeded_run_is_stable():
    """Same seed, same driver -> identical logs (no hidden state)."""
    for drive in (_run, _step_run):
        assert drive(Environment(), 21, "none") == drive(Environment(), 21, "none")


def _merge_workload(env: Environment, seed: int, log) -> Event:
    """A randomized mix of same-instant triggers around shared instants.

    Every process wakes on a coarse grid of shared future instants, so
    several timeouts land on each one, and at each instant it mixes
    ``succeed()`` chains (callbacks and relay processes that trigger the
    next link at the same instant), zero-delay timeouts, process
    bootstraps and priority-0 interrupts.  A same-instant trigger and a
    zero-delay timeout or an interrupt issued around it must pop in
    ``(time, priority, seq)`` order whatever structure holds them.
    Returns a bare event that a signaller triggers mid-instant, with
    more same-instant triggers issued after it, so ``run(until=event)``
    returns while entries at ``now`` are still pending.
    """
    streams = RandomStreams(seed)
    stop = env.event()

    def grid(r) -> float:
        # A shared future instant, 1-3 grid steps (of 0.5) ahead.
        return (int(env.now * 2) + 1 + int(r.integers(3))) / 2

    def chain(depth: int, tag) -> Event:
        # depth events, each triggering the next from its callback.
        links = [env.event() for _ in range(depth)]
        for link, following in zip(links, links[1:]):
            link.callbacks.append(
                lambda ev, nxt=following: nxt.succeed(ev.value + 1)
            )
        links[0].succeed(0)
        log.append(("chain", env.now, tag, depth))
        return links[-1]

    def relay(env, name, hops):
        # A bootstrapped process that passes the instant on through
        # zero-delay timeouts and fresh events.
        for hop in range(hops):
            if hop % 2:
                yield env.timeout(0.0)
            else:
                yield env.event().succeed(hop)
        log.append((name, env.now, "relayed"))
        return hops

    def worker(env, name, r):
        for i in range(25):
            yield env.timeout_at(grid(r))
            roll = r.random()
            if roll < 0.3:
                value = yield chain(1 + int(r.integers(4)), (name, i))
                log.append((name, env.now, value))
            elif roll < 0.5:
                # A zero-delay timeout scheduled before a same-instant
                # trigger: it holds the smaller seq, so it fires first.
                zero = env.timeout(0.0, value="zero")
                ev = env.event().succeed("event")
                first = yield ev
                log.append((name, env.now, first, zero.processed))
                yield zero
            elif roll < 0.75:
                child = env.process(relay(env, f"{name}-relay{i}", 1 + int(r.integers(4))))
                hops = yield child
                log.append((name, env.now, "child", hops))
            else:
                yield env.timeout(0.0)
                log.append((name, env.now, "zero"))

    def sleeper(env, name):
        for _ in range(10):
            try:
                yield env.timeout(7.0)
                log.append((name, env.now, "woke"))
            except Interrupt as intr:
                log.append((name, env.now, intr.cause))

    def interrupter(env, name, victims, r):
        for i in range(12):
            yield env.timeout_at(grid(r))
            # Triggers issued first, the interrupt after: priority 0
            # still pops ahead of them.
            chain(1 + int(r.integers(3)), (name, i))
            index = int(r.integers(len(victims)))
            if victims[index].is_alive:
                victims[index].interrupt(f"poke-{i}")
                log.append((name, env.now, index))
            yield env.timeout(0.0)

    def signaller(env, r):
        yield env.timeout_at(grid(r) + 3.0)
        chain(2, "before-stop")
        stop.succeed("stop")
        # Issued after the stop event: still pending when
        # run(until=stop) returns.
        chain(3, "after-stop")
        env.process(relay(env, "after-stop-relay", 2))
        log.append(("signaller", env.now, "signalled"))

    victims = [env.process(sleeper(env, f"sleeper-{i}")) for i in range(2)]
    for i in range(5):
        name = f"worker-{i}"
        env.process(worker(env, name, streams.stream(name)))
    env.process(interrupter(env, "interrupter", victims, streams.stream("interrupter")))
    env.process(signaller(env, streams.stream("signaller")))
    return stop


#: ``RunDigest`` hex of each seed's :func:`_merge_workload` run, recorded
#: with the heap-only schedule (every trigger one ``heappush``).
MERGE_PINNED_DIGESTS = {
    0: "9746f2bf4c67a7e0867e5f39388f8259",
    7: "24d7bafda529283cac30006525f1b44d",
    1234: "6b23e5e85f37e5145de95ecc7394df17",
}


def _merge_run(seed: int, drive: str):
    """Run :func:`_merge_workload` to exhaustion with one of three drivers.

    ``"run"`` is one ``run()``; ``"step"`` a plain ``step()`` loop;
    ``"stop"`` a ``run(until=stop)`` that must return with same-instant
    entries still pending, then a ``step()`` loop for the rest.
    """
    digest = RunDigest()
    env = Environment(trace=digest)
    log: list[tuple] = []
    stop = _merge_workload(env, seed, log)
    steps = 0
    if drive == "run":
        env.run()
    else:
        if drive == "stop":
            assert env.run(until=stop) == "stop"
            assert env.peek() == env.now
            assert ("signaller", env.now, "signalled") in log
            assert ("after-stop-relay", env.now, "relayed") not in log
        while env.peek() < float("inf"):
            before = digest.events
            env.step()
            # step() hands the hook its one row on return.
            assert digest.events == before + 1
            steps += 1
    return digest.hexdigest(), digest.events, log, env.now, env._seq, steps


@pytest.mark.parametrize("seed", sorted(MERGE_PINNED_DIGESTS))
def test_same_instant_merge_order_is_pinned(seed):
    ran = _merge_run(seed, "run")
    stepped = _merge_run(seed, "step")
    stopped = _merge_run(seed, "stop")
    assert ran[0] == MERGE_PINNED_DIGESTS[seed]
    for other in (stepped, stopped):
        assert other[:5] == ran[:5]
    assert stepped[5] == ran[1]
    assert 0 < stopped[5] < ran[1]
    names = {entry[0] for entry in ran[2]}
    assert {"chain", "interrupter", "sleeper-0", "signaller", "worker-0"} <= names
    assert any(entry[-1] == "relayed" for entry in ran[2])
