"""Shared resources for simulation processes.

Three primitives built on :mod:`repro.sim.engine`:

* :class:`Resource` -- a counted resource (e.g. a worker-thread pool) with
  priority-aware granting.  Processes ``yield resource.acquire()`` and later
  call ``release()``.
* :class:`Store` -- an unbounded-or-bounded FIFO buffer of items
  (e.g. a request queue).  ``put`` and ``get`` are events.
* :class:`PriorityStore` -- a store whose ``get`` returns the smallest item
  first (items are ordered, typically ``(priority, seq, payload)`` tuples);
  used for priority-aware message queues.

Waiters are served lowest-priority-value first, FIFO within a priority
level, matching the queueing disciplines of the modelled systems (the video
processing pipeline serves high-priority requests whenever any are
waiting).

The request/get/put events are plain :class:`~repro.sim.engine.Event`
subclasses: they are built with ``Event.__init__`` and fire through
``succeed``, so the engine alone owns the schedule.  Everything uses
``__slots__``, as these classes sit on the per-event hot path of every
deployment run.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any

from repro.sim.engine import Environment, Event, SimulationError

__all__ = ["Resource", "Store", "PriorityStore"]


class _Request(Event):
    """Event representing a pending acquire; fires when granted."""

    __slots__ = ()


class Resource:
    """A counted resource granting slots by (priority, arrival order).

    ``capacity`` slots are available; an acquire beyond capacity queues the
    requesting process.  Lower ``priority`` values are granted first; equal
    priorities are FIFO.  The queue length (:attr:`queue_len`) is exposed
    for instrumentation -- the microservice model uses it to report queue
    depths.
    """

    __slots__ = ("env", "_capacity", "_in_use", "_seq", "_waiters")

    def __init__(self, env: Environment, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self._capacity = int(capacity)
        self._in_use = 0
        self._seq = 0
        self._waiters: list[tuple[int, int, _Request]] = []

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def queue_len(self) -> int:
        """Number of acquire requests currently waiting."""
        return len(self._waiters)

    def acquire(self, priority: int = 0) -> _Request:
        """Request one slot.  Returns an event that fires when granted."""
        request = _Request(self.env)
        if self._in_use < self._capacity:
            self._in_use += 1
            request.succeed(self)
        else:
            self._seq += 1
            _heappush(self._waiters, (priority, self._seq, request))
        return request

    def _grant_next(self) -> bool:
        if not self._waiters:
            return False
        _, _, request = _heappop(self._waiters)
        request.succeed(self)
        return True

    def release(self) -> None:
        """Return one slot, waking the best-priority waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        if not self._grant_next():
            self._in_use -= 1

    def resize(self, capacity: int) -> None:
        """Change capacity at runtime (used when CPU limits change).

        Growing wakes as many waiters as new slots allow.  Shrinking does not
        preempt holders; the excess drains as slots are released.
        """
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        while self._in_use < self._capacity:
            if not self._grant_next():
                break
            self._in_use += 1


class _StoreGet(Event):
    __slots__ = ()


class _StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, env: Environment, item: Any) -> None:
        Event.__init__(self, env)
        self.item = item


class Store:
    """FIFO buffer of items with blocking put/get.

    ``capacity`` bounds the buffer (``None`` = unbounded).  ``get`` on an
    empty store blocks the caller until an item arrives; ``put`` on a full
    store blocks until space frees up.
    """

    __slots__ = ("env", "capacity", "_items", "_getters", "_putters")

    def __init__(self, env: Environment, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise SimulationError(f"store capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._items: list[Any] = []
        self._getters: list[_StoreGet] = []
        self._putters: list[_StorePut] = []

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> list[Any]:
        """Read-only view of buffered items (do not mutate)."""
        return self._items

    def _do_put(self, item: Any) -> None:
        self._items.append(item)

    def _do_get(self) -> Any:
        return self._items.pop(0)

    def put(self, item: Any) -> _StorePut:
        """Offer ``item``; the returned event fires when accepted."""
        event = _StorePut(self.env, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> _StoreGet:
        """Request an item; the returned event fires with the item."""
        event = _StoreGet(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def cancel_get(self, event: _StoreGet) -> None:
        """Withdraw a pending get (no-op if it already fired)."""
        if not event.triggered:
            try:
                self._getters.remove(event)
            except ValueError:
                pass

    def try_put(self, item: Any) -> bool:
        """Non-blocking put; returns False when the store is full."""
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._do_put(item)
        self._dispatch()
        return True

    def _dispatch(self) -> None:
        items = self._items
        getters = self._getters
        putters = self._putters
        capacity = self.capacity
        progressed = True
        while progressed:
            progressed = False
            # Move pending puts into the buffer while space remains.
            while putters and (capacity is None or len(items) < capacity):
                put = putters.pop(0)
                self._do_put(put.item)
                put.succeed()
                progressed = True
            # Hand buffered items to waiting getters.
            while getters and items:
                getters.pop(0).succeed(self._do_get())
                progressed = True


class PriorityStore(Store):
    """A :class:`Store` whose ``get`` returns the smallest item first.

    Items must be mutually comparable; use ``(priority, seq, payload)``
    tuples for stable ordering.  Models priority-aware message queues such
    as the video pipeline's high/low-priority streams.
    """

    __slots__ = ()

    def _do_put(self, item: Any) -> None:
        _heappush(self._items, item)

    def _do_get(self) -> Any:
        return _heappop(self._items)
