"""Drain equivalence: the inlined loop and the ``step()`` loop agree.

:meth:`Environment.run` drains the schedule with the inlined
``_drain`` loop, which also serves the trace hook, and falls back to a
loop over :meth:`Environment.step` when ``step`` is overridden.  Both
must pop the exact same ``(time, priority, seq)`` order and hand the
trace hook the same entries.  This file is the
executable form of that promise: randomized workloads mixing zero-delay
triggers, far-future timeouts, priority interrupts, resource contention
and abandoned (interrupt-detached) timeouts run through both loops, for
each ``until`` form, and the observation log (every process's
observations, in global order), the final clock and the final sequence
number must match.
"""

import pytest

from repro.sim.engine import Environment, Event, Interrupt
from repro.sim.random import RandomStreams
from repro.sim.resources import Resource
from repro.sim.trace import EventTraceRecorder, RunDigest


class SteppingEnvironment(Environment):
    """Overrides ``step`` so :meth:`run` takes the ``step()`` loop."""

    def __init__(self, trace=None) -> None:
        super().__init__(trace=trace)
        self.steps = 0

    def step(self) -> None:
        self.steps += 1
        super().step()


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

    def burst(env, name, r):
        # Mixed horizons: zero-delay (now bucket), near and far future.
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

    def standing(event):
        log.append(("standing", env.now, event.value))

    victims = [env.process(sleeper(env, f"sleeper-{i}")) for i in range(3)]
    for i in range(6):
        env.process(burst(env, f"burst-{i}", streams.stream(f"burst-{i}")))
    for i in range(4):
        name = f"contender-{i}"
        env.process(contender(env, name, streams.stream(name)))
    stop = env.process(
        interrupter(env, "interrupter", victims, streams.stream("interrupter"))
    )
    # Unconsumed far-future timeouts: a standing heap population that
    # outlives every process.
    r = streams.stream("standing")
    for k in range(200):
        env.timeout(r.random() * 50.0, value=k).callbacks.append(standing)
    return stop


def _run(env: Environment, seed: int, until: str):
    log: list[tuple] = []
    stop = _random_workload(env, seed, log)
    if until == "none":
        result = env.run()
    elif until == "time":
        result = env.run(until=20.0)
    else:
        result = env.run(until=stop)
    return log, result, env.now, env._seq, env.peek()


@pytest.mark.parametrize("until", ["none", "time", "event"])
@pytest.mark.parametrize("seed", [0, 7, 1234, 99991])
def test_inlined_and_step_drains_are_identical(seed, until):
    inlined = _run(Environment(), seed, until)
    stepping_env = SteppingEnvironment()
    stepped = _run(stepping_env, seed, until)
    traced = _run(Environment(trace=RunDigest()), seed, until)
    assert stepping_env.steps > 0
    assert inlined == stepped == traced
    log, result, now, _seq, next_time = inlined
    names = {name for name, _now, _obs in log}
    assert {"interrupter", "standing", "sleeper-0", "contender-0"} <= names
    if until == "none":
        assert next_time == float("inf")
    elif until == "time":
        assert now == 20.0 < next_time < float("inf")
    else:
        # Stopped at the interrupter's finish, with events still pending.
        assert result == "interrupter done"
        assert now <= next_time < float("inf")


@pytest.mark.parametrize("until", ["none", "time", "event"])
@pytest.mark.parametrize("seed", [0, 1234])
def test_both_loops_feed_the_trace_hook_identically(seed, until):
    inlined, stepped = EventTraceRecorder(), EventTraceRecorder()
    inlined_run = _run(Environment(trace=inlined), seed, until)
    assert inlined_run == _run(SteppingEnvironment(trace=stepped), seed, until)
    assert len(inlined) > 0
    assert inlined.entries == stepped.entries


@pytest.mark.parametrize("make", [Environment, SteppingEnvironment])
def test_until_processed_stop_returns_at_once(make):
    env = make()

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
    """Same seed, same loop -> identical logs (no hidden state)."""
    for make in (Environment, SteppingEnvironment):
        assert _run(make(), 21, "none") == _run(make(), 21, "none")
