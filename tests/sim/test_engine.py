"""Unit tests for the discrete-event engine."""

import traceback

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=10.0)
    assert env.now == 10.0


def test_timeout_advances_clock():
    env = Environment()
    times = []

    def proc(env):
        yield env.timeout(5)
        times.append(env.now)
        yield env.timeout(2.5)
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times == [5.0, 7.5]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()
    got = []

    def proc(env):
        value = yield env.timeout(1, value="hello")
        got.append(value)

    env.process(proc(env))
    env.run()
    assert got == ["hello"]


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10)

    env.process(proc(env))
    env.run(until=25)
    assert env.now == 25.0


def test_run_until_past_time_rejected():
    env = Environment()
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=1)


def test_same_time_events_fire_in_scheduling_order():
    env = Environment()
    order = []

    def proc(env, name):
        yield env.timeout(1)
        order.append(name)

    for name in "abc":
        env.process(proc(env, name))
    env.run()
    assert order == ["a", "b", "c"]


def test_process_return_value_visible_to_waiter():
    env = Environment()
    results = []

    def child(env):
        yield env.timeout(3)
        return 42

    def parent(env):
        value = yield env.process(child(env))
        results.append((env.now, value))

    env.process(parent(env))
    env.run()
    assert results == [(3.0, 42)]


def test_run_until_event_returns_value():
    env = Environment()

    def child(env):
        yield env.timeout(3)
        return "ok"

    proc = env.process(child(env))
    assert env.run(until=proc) == "ok"
    assert env.now == 3.0


def test_event_succeed_wakes_waiter():
    env = Environment()
    trigger = env.event()
    woken = []

    def waiter(env):
        value = yield trigger
        woken.append((env.now, value))

    def firer(env):
        yield env.timeout(7)
        trigger.succeed("payload")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert woken == [(7.0, "payload")]


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_failed_event_raises_in_waiter():
    env = Environment()
    trigger = env.event()
    caught = []

    def waiter(env):
        try:
            yield trigger
        except ValueError as exc:
            caught.append(str(exc))

    def firer(env):
        yield env.timeout(1)
        trigger.fail(ValueError("boom"))

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert caught == ["boom"]


def test_unhandled_failure_propagates_to_run():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("unhandled")

    env.process(bad(env))
    with pytest.raises(RuntimeError, match="unhandled"):
        env.run()


def test_unhandled_failure_prints_the_lines_it_passed_through():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("unhandled")  # raised here

    def waiter(env):
        yield env.process(bad(env))  # passed through here

    env.process(waiter(env))
    with pytest.raises(RuntimeError) as info:
        env.run()
    printed = "".join(traceback.format_exception(info.value))
    assert 'raise RuntimeError("unhandled")  # raised here' in printed
    assert "yield env.process(bad(env))  # passed through here" in printed


def test_uncaught_interrupt_prints_the_interrupted_yield():
    env = Environment()

    def sleeper(env):
        yield env.timeout(100)  # interrupted here

    def interrupter(env, victim):
        yield env.timeout(1)
        victim.interrupt("stop")

    env.process(interrupter(env, env.process(sleeper(env))))
    with pytest.raises(Interrupt) as info:
        env.run()
    assert "yield env.timeout(100)  # interrupted here" in "".join(
        traceback.format_exception(info.value)
    )


def test_caught_failure_keeps_the_traceback_of_its_raise():
    env = Environment()
    caught = []

    def bad(env):
        yield env.timeout(1)
        raise RuntimeError("boom")

    def waiter(env):
        try:
            yield env.process(bad(env))
        except RuntimeError as exc:
            caught.append(exc)
        yield env.timeout(1)  # handled: the waiter runs on

    env.process(waiter(env))
    env.run()
    frames = traceback.extract_tb(caught[0].__traceback__)
    assert [frame.name for frame in frames] == ["bad"]


def test_yielding_non_event_fails_process():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_interrupt_raises_in_target():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def interrupter(env, victim):
        yield env.timeout(5)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [(5.0, "wake up")]


def test_interrupt_finished_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    proc = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_child_can_interrupt_parent_waiting_on_it():
    env = Environment()
    log = []

    def child(env, parent):
        yield env.timeout(1)
        parent.interrupt(cause="from child")
        yield env.timeout(1)

    def parent(env):
        try:
            yield env.process(child(env, env.active_process))
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    env.process(parent(env))
    env.run()
    assert log == [(1.0, "from child")]


def test_process_cannot_interrupt_itself():
    env = Environment()

    def selfish(env):
        yield env.timeout(1)
        env.active_process.interrupt()
        yield env.timeout(1)

    env.process(selfish(env))
    with pytest.raises(SimulationError, match="cannot interrupt itself"):
        env.run()


def test_interrupted_process_can_continue():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(10)
        log.append(env.now)

    def interrupter(env, victim):
        yield env.timeout(5)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [15.0]


def test_any_of_fires_on_first():
    env = Environment()
    log = []

    def proc(env):
        a = env.timeout(5, value="a")
        b = env.timeout(10, value="b")
        fired = yield AnyOf(env, [a, b])
        log.append((env.now, sorted(fired.values())))

    env.process(proc(env))
    env.run()
    assert log == [(5.0, ["a"])]


def test_all_of_waits_for_all():
    env = Environment()
    log = []

    def proc(env):
        a = env.timeout(5, value="a")
        b = env.timeout(10, value="b")
        fired = yield AllOf(env, [a, b])
        log.append((env.now, sorted(fired.values())))

    env.process(proc(env))
    env.run()
    assert log == [(10.0, ["a", "b"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    log = []

    def proc(env):
        yield AllOf(env, [])
        log.append(env.now)

    env.process(proc(env))
    env.run()
    assert log == [0.0]


def test_is_alive_lifecycle():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    proc = env.process(quick(env))
    assert proc.is_alive
    env.run()
    assert not proc.is_alive


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(4)
    assert env.peek() == 4.0
    env2 = Environment()
    assert env2.peek() == float("inf")


def test_deterministic_many_processes():
    """Two identical runs produce identical event orderings."""

    def run_once():
        env = Environment()
        log = []

        def proc(env, name, period):
            while env.now < 50:
                yield env.timeout(period)
                log.append((env.now, name))

        for i, period in enumerate([3, 5, 7, 3]):
            env.process(proc(env, f"p{i}", period))
        env.run(until=60)
        return log

    assert run_once() == run_once()


def test_condition_propagates_failure():
    env = Environment()
    caught = []

    def failer(env):
        yield env.timeout(1)
        raise ValueError("child failed")

    def waiter(env):
        p1 = env.process(failer(env))
        p2 = env.timeout(10)
        try:
            yield AllOf(env, [p1, p2])
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    env.run()
    assert caught == ["child failed"]


def test_any_of_with_already_processed_event():
    env = Environment()
    log = []

    def proc(env):
        done = env.timeout(1)
        yield env.timeout(2)  # let `done` fire and process first
        fired = yield AnyOf(env, [done, env.timeout(50)])
        log.append(env.now)

    env.process(proc(env))
    env.run(until=10)
    # `done` already processed: AnyOf completes immediately at t=2.
    assert log == [2.0]


def test_run_until_event_that_never_fires():
    env = Environment()
    stop = env.event()  # nothing will ever trigger this

    def proc(env):
        yield env.timeout(5)

    env.process(proc(env))
    with pytest.raises(SimulationError, match="never fired"):
        env.run(until=stop)
    # The schedule fully drained before the error was raised.
    assert env.now == 5.0


def test_run_until_event_with_empty_schedule():
    env = Environment()
    with pytest.raises(SimulationError, match="never fired"):
        env.run(until=env.event())


def test_run_until_past_time_leaves_clock_untouched():
    env = Environment()
    env.run(until=7)
    with pytest.raises(SimulationError, match="in the past"):
        env.run(until=3)
    assert env.now == 7.0


def test_timeout_at_fires_at_exactly_when():
    env = Environment(initial_time=0.1)
    # Neither fire time survives a now + (when - now) round trip from
    # the time it is scheduled at, so a delay-based timeout would miss it.
    whens = [0.41, 0.93]
    assert 0.1 + (0.41 - 0.1) != 0.41 and 0.41 + (0.93 - 0.41) != 0.93
    fired = []

    def proc(env):
        for when in whens:
            yield env.timeout_at(when)
            fired.append(env.now)

    env.process(proc(env))
    env.run()
    assert fired == whens


def test_step_on_empty_schedule_rejected():
    env = Environment()
    with pytest.raises(SimulationError, match="empty schedule"):
        env.step()
    env.timeout(1.0)
    env.step()
    assert env.now == 1.0
    with pytest.raises(SimulationError, match="empty schedule"):
        env.step()
