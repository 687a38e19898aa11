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
through both drivers.  The pins were recorded with the two-level
schedule (a same-time FIFO in front of the heap) that the single heap
replaced; any change to the pop order moves them.
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
#: recorded with the two-level schedule the single heap replaced.
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
