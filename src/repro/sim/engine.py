"""Discrete-event simulation engine.

This module is the foundation of the cluster substrate: a small,
self-contained discrete-event kernel in the style of SimPy.  Processes are
Python generators that ``yield`` events; the environment resumes a process
when the event it waits on fires.  The engine provides:

* :class:`Environment` -- the event loop and simulation clock.
* :class:`Event` -- a one-shot occurrence that processes can wait on.
* :class:`Timeout` -- an event that fires after a simulated delay.
* :class:`Process` -- a running generator, itself awaitable as an event.
* :class:`AnyOf` / :class:`AllOf` -- condition events over several events.
* :class:`Interrupt` -- exception thrown into a process by another process.

The engine is deterministic: events scheduled at the same simulated time
fire in scheduling order (a monotonically increasing sequence number breaks
ties), so runs with the same seed are exactly reproducible.

Performance notes: this kernel is the hot path of every experiment --
a full-scale deployment run spends nearly all of its wall-clock here.
All event classes use ``__slots__``; processes cache their generator's
bound ``send``/``throw`` and their own ``_resume`` callback instead of
recreating bound methods per wait.

The run loop leaves no cyclic garbage behind.  A finished process drops
those cached callables (the ``_resume`` one is a self-reference), and a
fired :class:`AnyOf`/:class:`AllOf` removes its callback from the
events it no longer waits on, so neither waits for the cyclic garbage
collector, and a long-lived event such as a replica's stop signal does
not collect one dead callback per wait.  A failed process's exception
keeps no frame that could hold the process: it drops the kernel frame
that caught it and the live frame of a waiter that handled it, and it
keeps the frames of the generators it propagated out of with their
locals cleared (see :class:`Process`).  A real run therefore triggers a
handful of collections instead of hundreds (docs/performance.md).

The schedule is one binary heap of ``(time, priority, seq, event)``
tuples, owned by this module: every trigger -- ``succeed``, ``fail``,
timeouts, process bootstraps, priority-0 interrupts -- is one
``heappush``, and every pop is one ``heappop``, so the global order is
exactly ``(time, priority, seq)``.  Other modules trigger events only
through the :class:`Event` API.  Real runs keep a few dozen events
pending, where heapq's C sift is hard to beat (docs/performance.md).

There is one drain loop, :meth:`Environment._drain`: it serves all
three ``until`` forms of :meth:`Environment.run`, and
:meth:`Environment.step` is one iteration of it.  The pop, the trace
rows, the callbacks, the unhandled-failure raise and the timeout
recycle therefore exist once.  ``tests/sim/test_drain_equivalence.py``
pins that ``run()`` and a loop of ``step()`` calls produce identical
runs, traced or not.

The trace hook is a row sink, not a per-event call: the drain loop
appends a ``(when, priority, seq, type)`` row per popped event and hands
the hook each full buffer of :data:`_TRACE_CHUNK` rows, plus the partial
buffer when it returns, so tracing adds no Python frame per event.

Timeouts -- by far the most frequently constructed event -- are pooled:
after a timeout's callbacks run, the drain loop recycles the object
into a per-environment freelist *iff* nothing else holds a reference to
it (checked with ``sys.getrefcount``, so a timeout stored in a
variable, a condition, or a trace hook is never reused under anyone's
feet).  Recycled handles keep their ``_PROCESSED`` state, so a stale
``succeed()``/``fail()`` raises immediately, and every reuse bumps the
object's generation counter and validates the freelist invariants,
raising :class:`SimulationError` instead of silently corrupting the
schedule.  Benchmarked by ``benchmarks/perf/bench_engine.py`` (results
in ``BENCH_engine.json``; the allocation probe is described in
``docs/performance.md``).
"""

from __future__ import annotations

from collections.abc import Generator, Iterable
from functools import partial
from heapq import heappop as _heappop, heappush as _heappush
from operator import attrgetter
from sys import _getframe, getrefcount as _getrefcount
from typing import Any, Callable

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Timeout",
]


#: One row of the event trace: ``(when, priority, seq, event type)``.
TraceRow = tuple[float, int, int, type]
#: The ``Environment(trace=...)`` hook: called with buffers of rows (see
#: :class:`Environment`).
TraceHook = Callable[[list[TraceRow]], None]


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


# Event states
_PENDING = 0
_TRIGGERED = 1  # scheduled, callbacks not yet run
_PROCESSED = 2  # callbacks have run

#: Maximum recycled :class:`Timeout` objects kept per environment.  At
#: 4096 the pool covers the deepest concurrent-timeout populations of
#: the composite benchmarks while bounding the footprint of a pool that
#: a workload stops using.
_POOL_MAX = 4096

_INF = float("inf")

#: Rows the drain loop buffers before handing them to the trace hook
#: (see :class:`Environment`).  A hook call per 256 events instead of per
#: event; any partial buffer is handed over when the drain returns.
_TRACE_CHUNK = 256


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* the event: it is placed on the environment's queue and its
    callbacks run at the current simulation time.  A process waits on an
    event by yielding it from its generator.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_state", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] | None = []
        self._value: Any = None
        self._ok = True
        self._state = _PENDING
        #: Failure value consumed flag -- an unhandled failed event is an
        #: error raised by the drain loop (:meth:`Environment._drain`).
        self._defused = False

    # -- introspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (result or failure exception)."""
        return self._value

    # -- triggering -------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        env = self.env
        env._seq = seq = env._seq + 1
        _heappush(env._queue, (env._now, 1, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure carrying ``exception``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        env = self.env
        env._seq = seq = env._seq + 1
        _heappush(env._queue, (env._now, 1, seq, self))
        return self

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        callbacks = self.callbacks
        if callbacks is None:
            # Already processed: run at once (still at current sim time).
            callback(self)
        else:
            callbacks.append(callback)

    def __repr__(self) -> str:
        state = {_PENDING: "pending", _TRIGGERED: "triggered", _PROCESSED: "processed"}
        return f"<{type(self).__name__} {state[self._state]} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation.

    Timeouts are pooled per environment (see
    :meth:`Environment.timeout`); ``_gen`` counts how many times this
    object has been handed out.  Constructing one directly always
    allocates fresh and is fully supported -- the pool is an
    optimization of the factory, not a change in semantics.
    """

    __slots__ = ("_gen",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self._value = value
        self._state = _TRIGGERED
        self._gen = 0
        env._timeout_allocs += 1
        env._seq = seq = env._seq + 1
        _heappush(env._queue, (env._now + delay, 1, seq, self))


class _ConditionValue(dict):
    """Mapping of event -> value for fired events of a condition."""


class _Condition(Event):
    """Base for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("_events", "_fired")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._fired: list[Event] = []
        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")
            event._add_callback(self._on_fire)
        if self._state != _PENDING:
            # Fired during construction by an already-processed event.
            self._detach()
        elif not self._events:
            self.succeed(_ConditionValue())

    def _on_fire(self, event: Event) -> None:
        if self._state != _PENDING:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._detach()
            return
        self._fired.append(event)
        if self._satisfied():
            fired = set(map(id, self._fired))
            value = _ConditionValue()
            for ev in self._events:
                if id(ev) in fired:
                    value[ev] = ev._value
            self.succeed(value)
            self._detach()

    def _detach(self) -> None:
        """Remove this fired condition's callback from events still pending.

        Once fired, the callback is a no-op, but left in place it would
        pin the condition to a long-lived event (a replica's
        ``stop_event`` gains one per consumer wait) until that event
        fires -- an unbounded callbacks list, and a reference cycle
        through ``_events``.
        """
        on_fire = self._on_fire
        for event in self._events:
            callbacks = event.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(on_fire)
                except ValueError:
                    pass

    def _satisfied(self) -> bool:
        raise NotImplementedError


class AnyOf(_Condition):
    """Fires when at least one of the given events has fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._fired) >= 1


class AllOf(_Condition):
    """Fires when all of the given events have fired."""

    __slots__ = ()

    def _satisfied(self) -> bool:
        return len(self._fired) == len(self._events)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event that fires with the generator's return
    value when it finishes, so processes can wait for each other::

        def child(env):
            yield env.timeout(5)
            return "done"

        def parent(env):
            result = yield env.process(child(env))

    While it runs, a process caches its own ``_resume`` bound method --
    a reference to itself.  Finishing (returning, raising, or yielding a
    non-event) drops that cycle together with the generator, so a
    finished process is freed by refcount the moment nothing else holds
    it, never left for the cyclic garbage collector.

    A process that raises fails with the exception it raised.  Its
    traceback keeps the lines of the generators the exception
    propagated out of -- the raising one, and every waiter it passed
    through, an :class:`Interrupt` included -- but those frames' locals
    are cleared, and the kernel's own frames are dropped.  A waiter that
    catches the failure does not add its frame to it.  An unhandled
    failure that :meth:`Environment.run` re-raises therefore still
    prints where it was raised, but a debugger cannot inspect the
    finished generators' variables.
    """

    __slots__ = ("_generator", "_target", "_send", "_throw", "_resume_cb", "__weakref__")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Event | None = None
        # Bound methods are cached once: creating them per resume/wait is
        # a measurable cost at millions of events per run.
        self._send = generator.send
        self._throw = generator.throw
        self._resume_cb = resume = self._resume
        # Bootstrap: resume the process at the current time.  The entry
        # is pushed here rather than through ``succeed()``: the same
        # ``(now, 1, seq, Event)`` row, one call fewer per process.
        init = Event(env)
        init.callbacks.append(resume)
        init._state = _TRIGGERED
        env._seq = seq = env._seq + 1
        _heappush(env._queue, (env._now, 1, seq, init))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._state == _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting on an event detaches it from that event.
        """
        if self._state != _PENDING:
            raise SimulationError("cannot interrupt a finished process")
        env = self.env
        if self is env._active_process:
            raise SimulationError("a process cannot interrupt itself")
        interrupt_event = Event(env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event._state = _TRIGGERED
        env._seq = seq = env._seq + 1
        # Priority 0 beats every same-time, default-priority event.
        _heappush(env._queue, (env._now, 0, seq, interrupt_event))
        interrupt_event.callbacks.append(self._resume_cb)

    def _release(self) -> None:
        """Drop the finished generator and the cached callables.

        ``_resume_cb`` is a bound method of this process, so while it is
        cached the process references itself and only the cyclic garbage
        collector could free it.  Cleared on finish, a process is freed by
        refcount as soon as nothing else holds it.
        """
        self._generator = self._send = self._throw = self._resume_cb = None

    def _resume(self, event: Event) -> None:
        if self._state != _PENDING:
            return  # process already finished (e.g. interrupt raced finish)
        env = self.env
        # Detach from the previous target if we were interrupted away.
        target = self._target
        if target is not None and target is not event:
            target_callbacks = target.callbacks
            if target_callbacks is not None:
                try:
                    target_callbacks.remove(self._resume_cb)
                except ValueError:
                    pass
        self._target = None
        env._active_process = self
        send = self._send
        while True:
            try:
                if event._ok:
                    next_event = send(event._value)
                else:
                    event._defused = True
                    failure = event._value
                    # Delivering the failure adds this generator's frame
                    # to its traceback, and that frame holds whatever the
                    # waiter holds (typically the failed process, whose
                    # value is this exception).  A waiter that handled the
                    # failure is still live, so the exception gets back
                    # the traceback it arrived with.  One that let it
                    # propagate has finished: its frame stays, and
                    # _detach_traceback clears its locals below.
                    raised_at = failure.__traceback__
                    try:
                        next_event = self._throw(failure)
                    except BaseException as exc:
                        if exc is not failure:
                            failure.__traceback__ = raised_at
                        raise
                    failure.__traceback__ = raised_at
            except StopIteration as stop:
                env._active_process = None
                self._release()
                self.succeed(stop.value)
                return
            except BaseException as exc:
                env._active_process = None
                self._release()
                self.fail(_detach_traceback(exc, _getframe()))
                # The generator's finished frame, kept by the traceback,
                # links back to this frame, which keeps the locals it
                # returns with (CPython 3.12+): do not let them hold the
                # process whose value the exception now is.
                del self
                return
            # Only Event subclasses carry a `callbacks` slot, so the
            # attribute probe doubles as the is-this-an-event check without
            # paying for isinstance() on every yield.
            try:
                callbacks = next_event.callbacks
            except AttributeError:
                env._active_process = None
                self._release()
                self.fail(
                    SimulationError(
                        f"process yielded a non-event: {next_event!r}"
                    )
                )
                return
            # Fast path: an already-processed event (callbacks handed out
            # and discarded) resumes the generator immediately with its
            # value, without a queue round-trip.
            if callbacks is None:
                event = next_event
                continue
            # Event still pending or triggered-not-processed: wait.
            self._target = next_event
            callbacks.append(self._resume_cb)
            env._active_process = None
            return


def _detach_traceback(exc: BaseException, resume_frame: Any) -> BaseException:
    """``exc``, raised out of a process's generator, minus the kernel's frames.

    Drops the traceback entry of ``resume_frame`` (the failing process's
    ``_resume``, whose ``self`` is the process) and clears the locals of
    the finished generator frame, which may hold the process or its
    waiters.  Either would make process -> exception -> frame -> process
    a cycle.  The traceback keeps its lines, so it still prints.
    """
    tb = exc.__traceback__
    if tb is not None and tb.tb_frame is resume_frame:
        tb = exc.__traceback__ = tb.tb_next
        if tb is not None:
            tb.tb_frame.clear()
    return exc


class Environment:
    """The simulation environment: clock plus a one-heap schedule.

    Typical use::

        env = Environment()
        env.process(my_generator(env))
        env.run(until=100.0)

    Pending events live in one binary heap of ``(time, priority, seq,
    event)`` entries; see the module docstring.  ``trace`` installs an
    optional event-trace hook (:mod:`repro.sim.trace`).
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        trace: TraceHook | None = None,
    ) -> None:
        self._now = float(initial_time)
        #: Every pending event, as a heapq of (time, priority, seq, event).
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._active_process: Process | None = None
        #: Optional event-trace hook, a row sink: the drain loop appends
        #: one ``(when, priority, seq, type(event))`` row per event it
        #: pops, *before* the event's callbacks run, and calls
        #: ``trace(rows)`` with every full buffer of ``_TRACE_CHUNK`` rows
        #: and with whatever is buffered when the drain returns (or
        #: raises).  The hook owns the list it is handed.  ``None`` (the
        #: default) costs one local ``is not None`` test per event.  See
        #: :mod:`repro.sim.trace` for ready-made hooks (event recorders,
        #: run digests).
        self._trace = trace
        #: Freelist of recycled Timeout objects (see :meth:`timeout`).
        self._pool: list[Timeout] = []
        #: Fresh Timeout constructions vs pool reuses -- the allocation
        #: probe in benchmarks/perf/bench_engine.py reads both.
        self._timeout_allocs = 0
        self._timeout_reuses = 0

    @property
    def trace(self) -> TraceHook | None:
        """The installed event-trace callback, if any."""
        return self._trace

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def clock(self) -> Callable[[], float]:
        """A zero-argument callable returning :attr:`now`.

        Built from C callables, so a call runs no Python frame -- the
        metrics hub reads the clock on every counter and latency write.
        """
        return partial(attrgetter("_now"), self)

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any."""
        return self._active_process

    def timeout_pool_stats(self) -> dict[str, int]:
        """Freelist counters: fresh allocations, reuses, pooled objects."""
        return {
            "allocs": self._timeout_allocs,
            "reuses": self._timeout_reuses,
            "pooled": len(self._pool),
        }

    # -- factories --------------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now.

        Hands out a recycled :class:`Timeout` from the environment's
        freelist when one is available (see :meth:`_schedule_timeout`).
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        return self._schedule_timeout(self._now + delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """Create an event firing at absolute simulated time ``when``.

        Equivalent to ``timeout(when - now)`` except that the fire time
        is exactly ``when``: no ``now + (when - now)`` float round trip.
        Batch-generating processes (the workload layer pre-computes
        arrival times far ahead of the clock) use this to wake at
        precomputed times bit-for-bit.  Pool-backed like
        :meth:`timeout`.
        """
        if when < self._now:
            raise SimulationError(f"timeout_at({when}) is in the past (now={self._now})")
        return self._schedule_timeout(when, value)

    def _schedule_timeout(self, when: float, value: Any) -> Timeout:
        """Schedule a :class:`Timeout` at ``when``, reusing a pooled one.

        The drain loop returns a timeout to the pool once its callbacks
        have run and nothing else references it.  Reuse validates the
        freelist invariants -- a recycled handle that was resurrected
        through a stale reference raises :class:`SimulationError` here
        rather than corrupting the schedule -- and bumps the object's
        generation counter.
        """
        pool = self._pool
        if pool:
            timeout = pool.pop()
            if (
                timeout._state != _PROCESSED
                or timeout.callbacks is None
                or timeout.callbacks
            ):
                raise SimulationError(
                    "timeout freelist corrupted: a recycled Timeout was "
                    "mutated through a stale handle"
                )
            timeout._gen += 1
            self._timeout_reuses += 1
        else:
            timeout = Timeout.__new__(Timeout)
            Event.__init__(timeout, self)
            timeout._gen = 0
            self._timeout_allocs += 1
        timeout._value = value
        timeout._state = _TRIGGERED
        self._seq = seq = self._seq + 1
        _heappush(self._queue, (when, 1, seq, timeout))
        return timeout

    def process(self, generator: Generator) -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    # -- scheduling -------------------------------------------------------
    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else _INF

    def step(self) -> None:
        """Process the next scheduled event: one iteration of :meth:`_drain`.

        Raises the failure exception of any failed event that no process
        handled (mirroring SimPy's "dead process" detection), so bugs do not
        silently vanish.  A timeout processed here is never recycled: the
        loop's reference to it fails the freelist's refcount guard.
        """
        if not self._queue:
            raise SimulationError("step() on an empty schedule")
        self._drain(self._queue[0][3], _INF)

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be a simulation time (run to that time), an
        :class:`Event` (run until it fires and return its value), or ``None``
        (run until no events remain).

        With an event, the schedule may drain before the event ever
        triggers (no process can fire it any more); that is reported as a
        :class:`SimulationError` rather than returning silently.

        All three forms drain through :meth:`_drain`; overriding
        :meth:`step` does not change how ``run`` drains.
        """
        stop: Event | None = None
        horizon = _INF
        if isinstance(until, Event):
            stop = until
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise SimulationError(
                    f"run(until={horizon}) is in the past (now={self._now})"
                )
        self._drain(stop, horizon)
        if stop is not None:
            if stop._state == _PENDING:
                raise SimulationError(
                    "run(until=event): schedule drained but the event never fired"
                )
            if not stop._ok:
                raise stop._value
            return stop._value
        if until is not None:
            self._now = horizon
        return None

    def _drain(self, stop: Event | None, horizon: float) -> None:
        """The kernel's only event loop, behind both :meth:`run` and :meth:`step`.

        Pops entries in ``(time, priority, seq)`` order, buffers each
        one's trace row if a hook is installed (handing the hook every
        full buffer, and the partial one on the way out), runs the
        event's callbacks, raises an unhandled failure, and recycles a
        timeout nothing else holds.  Returns once the schedule is empty,
        the next event lies past ``horizon``, or ``stop`` has been
        processed.
        """
        if stop is not None and stop._state == _PROCESSED:
            return
        trace = self._trace
        queue = self._queue
        pool = self._pool
        rows: list[TraceRow] = []
        try:
            while queue and queue[0][0] <= horizon:
                when, priority, seq, event = _heappop(queue)
                self._now = when
                if trace is not None:
                    # The row holds the event's type, never the event: a
                    # buffered reference would fail the freelist's
                    # refcount guard below.
                    rows.append((when, priority, seq, event.__class__))
                    if len(rows) == _TRACE_CHUNK:
                        trace(rows)
                        rows = []
                callbacks = event.callbacks
                event.callbacks = None
                event._state = _PROCESSED
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    exc = event._value
                    raise exc if isinstance(exc, BaseException) else (
                        SimulationError(repr(exc))
                    )
                if (
                    type(event) is Timeout
                    and len(pool) < _POOL_MAX
                    and _getrefcount(event) == 2
                ):
                    # Nothing else references this timeout: recycle it
                    # (and its callbacks list) into the freelist.  It
                    # keeps the _PROCESSED state, so stale triggers
                    # raise; reuse revalidates and bumps the generation
                    # counter.
                    callbacks.clear()
                    event.callbacks = callbacks
                    event._value = None
                    pool.append(event)
                if event is stop:
                    return
        finally:
            # On CPython 3.12+ a failure's traceback keeps this frame
            # (through the finished generator's f_back chain) with the
            # locals it exits with; drop the last event's so a failed
            # process handled just before returning is freed by refcount.
            event = callbacks = callback = None
            if rows:
                trace(rows)
