"""One-event drains for the kernel tests.

:meth:`Environment.run` is the kernel's only drive.  :func:`step` runs
it until the event at the front of the schedule has been processed --
exactly one event, since nothing sorts before the front -- so a test can
drive a run one event at a time through the production ``run(until=
event)`` path and check that a drain which returns and resumes after
every event pops the same stream as one ``run()``.  The front is read
from the kernel's two lanes: the ready lane's head unless the heap's
front sorts before it, as in ``Environment._drain``.
"""

from repro.sim.engine import Environment


def _front(env: Environment):
    ready, queue = env._ready, env._queue
    if ready and not (queue and queue[0] < ready[0]):
        return ready[0]
    return queue[0] if queue else None


def next_time(env: Environment) -> float:
    """Time of the next scheduled event, or ``inf`` if none."""
    front = _front(env)
    return float("inf") if front is None else front[0]


def step(env: Environment) -> None:
    """Process exactly the next scheduled event."""
    env.run(until=_front(env)[3])
