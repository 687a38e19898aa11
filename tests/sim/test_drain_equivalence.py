"""Drain equivalence: one ``run()`` and a run stepped one event at a time agree.

:meth:`Environment.run` drains the schedule with the kernel's one loop,
``_drain``, for every ``until`` form.  A run driven one event at a time
(:func:`tests.sim.stepping.step`, a ``run(until=<front event>)`` per
event) returns from and re-enters that loop after every event, and must
still pop the exact same ``(time, priority, seq)`` order and hand the
trace hook the same entries.  This file is the executable form of that
promise: randomized workloads mixing zero-delay triggers, far-future
timeouts, resource contention, and a bounded store's blocked puts and
handoffs run through ``run()`` and through a stepped loop, for each
``until`` form, and the observation log (every process's observations,
in global order), the final sequence number and the next pending time
must match.

The two drivers agreeing with each other does not show that they agree
with an earlier kernel, so each ``(seed, until)`` run's
:class:`RunDigest` is also pinned (``PINNED_DIGESTS``) and checked
through both drivers.  Any change to the pop order moves them.

A second randomized workload, :func:`_merge_workload`, concentrates on
the same-instant merge of the ready lane and the heap
(``MERGE_PINNED_DIGESTS``).  Both sets of pins were recorded with the
two-lane kernel that still supported process interrupts, once the
workloads no longer used them.
"""

import pytest

from repro.sim.engine import Environment, Event
from repro.sim.random import RandomStreams
from repro.sim.resources import Resource, Store
from repro.sim.trace import RunDigest
from tests.sim.stepping import next_time, step

#: The ``run(until=...)`` horizon of the ``"time"`` form.
HORIZON = 20.0


def _random_workload(env: Environment, seed: int, log) -> Event:
    """A randomized mix that exercises every scheduling path.

    All randomness comes from named :class:`RandomStreams` streams keyed
    only by the seed, so every environment given the same seed issues the
    identical schedule.  Processes append ``(name, now, observation)`` to
    ``log``.  Returns the pacer process, which finishes while other
    events are still pending (the ``run(until=event)`` target).
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
        # Evenly spaced wake-ups that tie with other processes' timeouts.
        for _ in range(12):
            yield env.timeout(5.0)
            log.append((name, env.now, "woke"))

    def pacer(env, name, r):
        for i in range(8):
            yield env.timeout(0.1 + r.random() * 3.0)
            log.append((name, env.now, i))
            # A zero-delay timeout: same instant, later seq.
            yield env.timeout(0.0)
            log.append((name, env.now, "resumed"))
        return "pacer done"

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

    for i in range(3):
        env.process(sleeper(env, f"sleeper-{i}"))
    for i in range(6):
        env.process(burst(env, f"burst-{i}", streams.stream(f"burst-{i}")))
    for i in range(4):
        name = f"contender-{i}"
        env.process(contender(env, name, streams.stream(name)))
    for name in ("producer-0", "producer-1"):
        env.process(producer(env, name, streams.stream(name)))
    env.process(consumer(env, "consumer", streams.stream("consumer")))
    stop = env.process(pacer(env, "pacer", streams.stream("pacer")))
    # Unconsumed far-future timeouts: a standing heap population that
    # outlives every process.
    r = streams.stream("standing")
    for k in range(200):
        env.timeout(r.random() * 50.0, value=k).callbacks.append(standing)
    return stop


#: ``RunDigest`` hex of each ``(seed, until)`` run of ``_random_workload``,
#: recorded with the two-lane kernel (see the module docstring).
PINNED_DIGESTS = {
    (0, "none"): "d8d683475394a4c55fd6a432214f441b",
    (0, "time"): "4b3ced4e29fadf2d59aece544d9329a8",
    (0, "event"): "bc9f595a8db362c16dce786762c71835",
    (7, "none"): "af9dee3ca0b22a375c59f9e9a6f9cc5c",
    (7, "time"): "1ad75f192ebdbeb92b38da87be8cca55",
    (7, "event"): "808decf358eb7a9f8944435a260ae039",
    (1234, "none"): "3f095ea308399ac90f0a73f667c3ffb2",
    (1234, "time"): "e247e6b15a50f2728648ad3c3d056758",
    (1234, "event"): "ed57f41b21e02927adee3f62b6ffb33b",
    (99991, "none"): "5de360e27089450703e85c264d3feb87",
    (99991, "time"): "b262e98720fd5abf14292d1f3f192f57",
    (99991, "event"): "4e728920809d29048829da755db84ee3",
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
    return log, result, env.now, env._seq, next_time(env)


def _step_run(env: Environment, seed: int, until: str):
    """:func:`_run` driven by a loop of one-event :func:`step` calls.

    Returns :func:`_run`'s tuple and the number of ``step`` calls.
    Unlike ``run(until=HORIZON)``, the loop leaves the clock at the last
    processed event rather than at the horizon.
    """
    log: list[tuple] = []
    stop = _random_workload(env, seed, log)
    steps = 0
    if until == "event":
        while not stop.processed:
            step(env)
            steps += 1
        result = stop.value
    else:
        horizon = HORIZON if until == "time" else float("inf")
        while next_time(env) < float("inf") and next_time(env) <= horizon:
            step(env)
            steps += 1
        result = None
    return (log, result, env.now, env._seq, next_time(env)), steps


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
    # Each step call processes exactly one event.
    assert steps == step_digest.events == digest.events
    assert digest.hexdigest() == PINNED_DIGESTS[(seed, until)]
    assert step_digest.hexdigest() == PINNED_DIGESTS[(seed, until)]
    log, result, now, _seq, next_time = inlined
    names = {name for name, _now, _obs in log}
    assert {
        "pacer", "standing", "sleeper-0", "contender-0",
        "producer-0", "consumer",
    } <= names
    if until == "none":
        assert next_time == float("inf")
    elif until == "time":
        assert now == HORIZON < next_time < float("inf")
    else:
        # Stopped at the pacer's finish, with events still pending.
        assert result == "pacer done"
        assert now <= next_time < float("inf")


@pytest.mark.parametrize("until", ["none", "time", "event"])
@pytest.mark.parametrize("seed", [0, 1234])
def test_both_loops_feed_the_trace_hook_identically(seed, until):
    inlined: list[tuple] = []
    stepped: list[tuple] = []
    ran = _run(Environment(trace=inlined.extend), seed, until)
    step_run, steps = _step_run(Environment(trace=stepped.extend), seed, until)
    _same_run(ran, step_run, until)
    assert len(inlined) == steps > 0
    assert inlined == stepped


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
    next link at the same instant), zero-delay timeouts and process
    bootstraps.  A same-instant trigger and a zero-delay timeout issued
    around it must pop in ``(time, priority, seq)`` order whatever
    structure holds them.
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
            yield env.timeout(7.0)
            log.append((name, env.now, "woke"))

    def chainer(env, name, r):
        for i in range(12):
            yield env.timeout_at(grid(r))
            # Triggers issued first, a zero-delay timeout after: the
            # triggers hold the smaller seqs, so they fire first.
            chain(1 + int(r.integers(3)), (name, i))
            yield env.timeout(0.0)
            log.append((name, env.now, "zero"))

    def signaller(env, r):
        yield env.timeout_at(grid(r) + 3.0)
        chain(2, "before-stop")
        stop.succeed("stop")
        # Issued after the stop event: still pending when
        # run(until=stop) returns.
        chain(3, "after-stop")
        env.process(relay(env, "after-stop-relay", 2))
        log.append(("signaller", env.now, "signalled"))

    for i in range(2):
        env.process(sleeper(env, f"sleeper-{i}"))
    for i in range(5):
        name = f"worker-{i}"
        env.process(worker(env, name, streams.stream(name)))
    env.process(chainer(env, "chainer", streams.stream("chainer")))
    env.process(signaller(env, streams.stream("signaller")))
    return stop


#: ``RunDigest`` hex of each seed's :func:`_merge_workload` run, recorded
#: with the two-lane kernel (see the module docstring).
MERGE_PINNED_DIGESTS = {
    0: "8144fa627ab54e2fa205dbb732b92a4f",
    7: "74c1c37f86df952d536e038b9faf1888",
    1234: "b6162334cd40e59788fc940ee6c1f5d7",
}


def _merge_run(seed: int, drive: str):
    """Run :func:`_merge_workload` to exhaustion with one of three drivers.

    ``"run"`` is one ``run()``; ``"step"`` a loop of one-event steps;
    ``"stop"`` a ``run(until=stop)`` that must return with same-instant
    entries still pending, then a ``run()`` for the rest.  The last
    element is the number of events processed by the time ``stop`` was
    (all of them for ``"run"``).
    """
    digest = RunDigest()
    env = Environment(trace=digest)
    log: list[tuple] = []
    stop = _merge_workload(env, seed, log)
    if drive == "run":
        env.run()
        at_stop = digest.events
    elif drive == "stop":
        assert env.run(until=stop) == "stop"
        at_stop = digest.events
        # The relay bootstrapped after the stop event is still pending
        # at this very instant, and relays at it once the run resumes.
        stopped_at = env.now
        assert ("signaller", stopped_at, "signalled") in log
        assert ("after-stop-relay", stopped_at, "relayed") not in log
        env.run()
        assert ("after-stop-relay", stopped_at, "relayed") in log
    else:
        steps = 0
        while next_time(env) < float("inf"):
            before = digest.events
            step(env)
            # The drain hands the hook its one row on return.
            assert digest.events == before + 1
            steps += 1
        at_stop = steps
    return digest.hexdigest(), digest.events, log, env.now, env._seq, at_stop


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
    assert {"chain", "chainer", "sleeper-0", "signaller", "worker-0"} <= names
    assert any(entry[-1] == "relayed" for entry in ran[2])
