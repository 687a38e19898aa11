"""The run loop leaves no cyclic garbage behind.

A finished :class:`~repro.sim.engine.Process` must be freed by refcount,
and a fired condition must not stay attached to the events it no longer
waits on.  Either leak makes the cyclic garbage collector (or a growing
callbacks list) pay per simulated request, so the checks here compare
counts across run lengths rather than time anything.
"""

import gc
import weakref
from collections import Counter

import pytest

from repro.apps.social_network import build_social_network_spec
from repro.apps.topology import Application
from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    RandomStreams,
    SimulationError,
)
from repro.workload import ConstantLoad, LoadGenerator, RequestMix


@pytest.fixture
def gc_disabled():
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def test_finished_process_is_freed_by_refcount(gc_disabled):
    env = Environment()

    def child(env):
        yield env.timeout(1.0)
        return "done"

    def parent(env, refs):
        for _ in range(3):
            process = env.process(child(env))
            refs.append(weakref.ref(process))
            yield process

    refs: list[weakref.ref] = []
    refs.append(weakref.ref(env.process(parent(env, refs))))
    env.run()
    assert len(refs) == 4
    assert all(ref() is None for ref in refs)


def test_failed_process_is_freed_by_refcount(gc_disabled):
    """A waiter that catches a failed process's exception -- directly,
    through an intermediate waiter that lets it propagate, or as the
    context of another exception -- leaves no cycle through the
    exception's traceback; nor does an uncaught interrupt."""
    env = Environment()

    def raises(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def yields_non_event(env):
        yield 42

    def passes_on(env, refs):
        process = env.process(raises(env))
        refs.append(weakref.ref(process))
        yield process

    def converts(env, refs):
        process = env.process(raises(env))
        refs.append(weakref.ref(process))
        try:
            yield process
        except ValueError:
            raise KeyError("converted")

    def interrupted(env, refs):
        sleeper = env.process(sleeps(env))
        refs.append(weakref.ref(sleeper))
        yield env.timeout(0.5)
        sleeper.interrupt("stop")
        yield sleeper

    def sleeps(env):
        yield env.timeout(10.0)

    def waiter(env, refs):
        for child in (
            raises,
            yields_non_event,
            lambda env: passes_on(env, refs),
            lambda env: converts(env, refs),
            lambda env: interrupted(env, refs),
        ):
            process = env.process(child(env))
            refs.append(weakref.ref(process))
            try:
                yield process
            except (ValueError, SimulationError, KeyError, Interrupt) as exc:
                caught.append(type(exc))

    caught: list[type] = []
    refs: list[weakref.ref] = []
    refs.append(weakref.ref(env.process(waiter(env, refs))))
    env.run()
    assert caught == [ValueError, SimulationError, ValueError, KeyError, Interrupt]
    assert len(refs) == 9
    assert all(ref() is None for ref in refs)


def test_failed_process_handled_as_the_drain_returns_is_freed(gc_disabled):
    """The drain stops right after a waiter handled a failure.  On CPython
    3.12+ the failure's traceback keeps the drain's frame with its exit
    locals, so the last event's locals must not keep the failed process."""
    env = Environment()

    def raises(env):
        yield env.timeout(1.0)
        raise ValueError("boom")

    def waiter(env, refs):
        process = env.process(raises(env))
        refs.append(weakref.ref(process))
        try:
            yield process
        except ValueError:
            pass
        del process
        yield env.timeout(10.0)

    refs: list[weakref.ref] = []
    env.process(waiter(env, refs))
    env.run(until=2.0)
    assert refs[0]() is None


def test_fired_anyof_detaches_from_pending_events():
    env = Environment()
    first, long_lived = env.event(), env.event()
    condition = AnyOf(env, [first, long_lived])
    first.succeed("a")
    env.run()
    assert condition.processed and condition.value == {first: "a"}
    assert long_lived.callbacks == []


def test_failed_allof_detaches_from_pending_events():
    env = Environment()
    failing, pending = env.event(), env.event()
    condition = AllOf(env, [failing, pending])
    condition.callbacks.append(lambda event: setattr(event, "_defused", True))
    failing.fail(RuntimeError("boom"))
    env.run()
    assert not condition.ok
    assert pending.callbacks == []


def test_condition_fired_at_construction_attaches_nothing():
    env = Environment()
    done, pending = env.event(), env.event()
    done.succeed()
    env.run()
    condition = AnyOf(env, [done, pending])
    assert condition.triggered
    assert pending.callbacks == []


def _mq_app(seed: int = 5):
    """Social network serving only its MQ-rooted class (sentiment-ml)."""
    spec = build_social_network_spec()
    app = Application(spec, seed, initial_replicas=1)
    LoadGenerator(
        app,
        pattern=ConstantLoad(20.0),
        mix=RequestMix({"sentiment-analysis": 1.0}),
        streams=RandomStreams(seed + 1),
    ).start()
    return app


def test_replica_stop_event_callbacks_stay_bounded():
    app = _mq_app()
    service = app.services["sentiment-ml"]
    app.env.run(until=120.0)
    assert service.queue.consumed > 1000
    for replica in service._running:
        assert len(replica.stop_event.callbacks) <= 1


def _cyclic_garbage(duration_s: float) -> tuple[Counter, int]:
    """Types of every object the collector found unreachable over one run,
    teardown included, and the messages the run consumed."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        app = _mq_app()
        app.env.run(until=duration_s)
        consumed = app.services["sentiment-ml"].queue.consumed
        del app
        gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return kinds, consumed


def test_cyclic_garbage_does_not_grow_with_run_length():
    short, short_consumed = _cyclic_garbage(30.0)
    long, long_consumed = _cyclic_garbage(90.0)
    assert long_consumed - short_consumed > 1000
    # What is left is the deployment torn down at the end of the run (its
    # idle processes and pending consumer waits), the same at any length;
    # a few requests may be in flight when either run stops.
    for kind in ("Process", "AnyOf"):
        assert long[kind] <= short[kind] + 5, (kind, short[kind], long[kind])
