"""Request and call-tree types shared by the communication substrate.

A *request class* (e.g. ``upload-post``, ``object-detect``) is executed as
a **call tree**: each node names a microservice and how its parent invokes
it (§III's three communication methods):

* ``CallMode.RPC`` -- nested (synchronous) RPC: the parent holds its worker
  thread while waiting for the child's response.
* ``CallMode.EVENT`` -- event-driven RPC: the parent acknowledges its own
  caller immediately after dispatching the child call to a daemon thread;
  the daemon waits for the child's response.
* ``CallMode.MQ`` -- message queue: the parent publishes a message and
  continues; the child consumes it when a worker frees up.  No thread of
  the parent is ever held on the child.

End-to-end latency of a request is the time until its *entire* tree has
completed (for synchronous trees this equals the root's response time; for
MQ pipelines it is the pipeline completion time, which is what the paper's
SLAs for e.g. ``object-detect`` refer to).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

from repro.errors import TopologyError

__all__ = ["CallMode", "Call", "Request"]


class CallMode(enum.Enum):
    RPC = "rpc"
    EVENT = "event"
    MQ = "mq"


@dataclass(frozen=True)
class Call:
    """One node of a request class's call tree.

    ``repeat`` models a service accessed multiple times by its parent; the
    accesses happen sequentially and their latencies accumulate (§IV treats
    the cumulative latency as the latency of that service).
    """

    service: str
    mode: CallMode = CallMode.RPC
    children: tuple["Call", ...] = ()
    repeat: int = 1

    def __post_init__(self) -> None:
        if not self.service:
            raise TopologyError("call must name a service")
        if self.repeat < 1:
            raise TopologyError(f"repeat must be >= 1, got {self.repeat}")
        object.__setattr__(self, "children", tuple(self.children))

    @cached_property
    def legs(self) -> tuple[tuple["Call", ...], tuple["Call", ...], tuple["Call", ...]]:
        """The ``(mq, rpc, event)`` child calls, each expanded by ``repeat``.

        The order the runtime calls them in: children keep their order
        within each mode, and a child with ``repeat=n`` appears ``n``
        times in a row.  Computed on first use and cached on the
        instance, so a ``Call`` unpickled from an older cache entry
        simply computes it again.
        """
        by_mode: dict[CallMode, list[Call]] = {mode: [] for mode in CallMode}
        for child in self.children:
            by_mode[child.mode].extend([child] * child.repeat)
        return (
            tuple(by_mode[CallMode.MQ]),
            tuple(by_mode[CallMode.RPC]),
            tuple(by_mode[CallMode.EVENT]),
        )

    def services(self) -> list[str]:
        """All service names in this subtree, preorder, with duplicates."""
        names = [self.service]
        for child in self.children:
            names.extend(child.services())
        return names

    def walk(self) -> list["Call"]:
        """All calls in this subtree, preorder."""
        nodes = [self]
        for child in self.children:
            nodes.extend(child.walk())
        return nodes

    def depth(self) -> int:
        """Length of the longest service chain in this subtree."""
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)


@dataclass
class Request:
    """One in-flight user request.

    ``request_id`` is assigned by :meth:`repro.apps.topology.Application.submit`
    from a per-application counter, so ids are deterministic *within a
    run* and identical across ``--jobs 1`` / ``--jobs N`` executions.  A
    process-global counter here would diverge between sequential and
    pooled runs (each pool worker counts from its own fork point); the
    whole-program lint rule PAR002 guards against reintroducing one.
    ``-1`` marks a request constructed outside an application
    (ad-hoc unit-test requests that never cross a run boundary).
    """

    request_class: str
    arrival_time: float
    priority: int = 0
    request_id: int = -1
    #: Filled by the runtime when the whole call tree has completed.
    completion_time: float | None = None

    @property
    def latency(self) -> float:
        """End-to-end latency; only valid after completion."""
        if self.completion_time is None:
            raise ValueError(f"request {self.request_id} has not completed")
        return self.completion_time - self.arrival_time
