"""Pod placement: first-fit-decreasing bin packing over nodes.

A deliberately simple stand-in for the Kubernetes scheduler: pods are
placed on the node with the most free CPUs that fits them (worst-fit by
CPU, which balances load across machines and reduces CPU contention --
consistent with the paper's interference-avoidance setup).
"""

from __future__ import annotations

from repro.cluster.node import Node
from repro.errors import SchedulingError

__all__ = ["Scheduler"]


class Scheduler:
    """Places pods on nodes; raises :class:`SchedulingError` when full."""

    def __init__(self, nodes: list[Node]) -> None:
        if not nodes:
            raise SchedulingError("scheduler needs at least one node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise SchedulingError(f"duplicate node names: {names}")
        self.nodes = list(nodes)

    def place(self, cpus: int, memory_gb: float) -> Node:
        """Choose a node for a pod and allocate its resources."""
        chosen = self.try_place(cpus, memory_gb)
        if chosen is None:
            total_free = sum(node.cpus_free for node in self.nodes)
            raise SchedulingError(
                f"no node fits {cpus} CPUs / {memory_gb} GB "
                f"({total_free} CPUs free cluster-wide)"
            )
        return chosen

    def try_place(self, cpus: int, memory_gb: float) -> Node | None:
        """Like :meth:`place` but returns ``None`` when no node fits.

        The capacity-capped scaling path (budgeted fleet cells) uses this
        to treat a full cluster as back-off instead of an error.
        """
        candidates = [node for node in self.nodes if node.fits(cpus, memory_gb)]
        if not candidates:
            return None
        # Worst-fit by free CPUs; node name breaks ties deterministically.
        chosen = max(candidates, key=lambda node: (node.cpus_free, node.name))
        chosen.allocate(cpus, memory_gb)
        return chosen

    def free_cpus(self) -> int:
        return sum(node.cpus_free for node in self.nodes)
