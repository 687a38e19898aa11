"""Cluster nodes (machines) with CPU and memory capacity.

The paper's testbed has 8 machines with 40-88 CPUs and 126-188 GB of
memory each; runs here deploy onto the homogeneous shape
:class:`~repro.cluster.cluster.ClusterOptions` describes (8 x 96 CPUs /
256 GB by default).  Under Kubernetes's *static* CPU-management policy a
container with an integer CPU request gets exclusive cores, so allocation
here is whole-core and exclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SchedulingError

__all__ = ["Node"]


@dataclass
class Node:
    """One machine: whole-core CPU and memory accounting."""

    name: str
    cpus: int
    memory_gb: float

    _cpus_used: int = field(default=0, repr=False)
    _memory_used: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.cpus < 1:
            raise ValueError(f"node needs >= 1 CPU, got {self.cpus}")
        if self.memory_gb <= 0:
            raise ValueError(f"node needs > 0 memory, got {self.memory_gb}")

    @property
    def cpus_free(self) -> int:
        return self.cpus - self._cpus_used

    @property
    def memory_free_gb(self) -> float:
        return self.memory_gb - self._memory_used

    def fits(self, cpus: int, memory_gb: float) -> bool:
        """Can this node host a pod with the given resources?"""
        return cpus <= self.cpus_free and memory_gb <= self.memory_free_gb + 1e-9

    def allocate(self, cpus: int, memory_gb: float) -> None:
        """Reserve resources for a pod (exclusive cores, static policy)."""
        if cpus < 1:
            raise SchedulingError(f"pods need >= 1 CPU, got {cpus}")
        if not self.fits(cpus, memory_gb):
            raise SchedulingError(
                f"node {self.name} cannot fit {cpus} CPUs / {memory_gb} GB "
                f"(free: {self.cpus_free} CPUs / {self.memory_free_gb:.1f} GB)"
            )
        self._cpus_used += cpus
        self._memory_used += memory_gb

    def free(self, cpus: int, memory_gb: float) -> None:
        """Return resources previously allocated."""
        if cpus > self._cpus_used or memory_gb > self._memory_used + 1e-9:
            raise SchedulingError(
                f"node {self.name}: freeing more than allocated "
                f"({cpus} CPUs / {memory_gb} GB)"
            )
        self._cpus_used -= cpus
        self._memory_used = max(0.0, self._memory_used - memory_gb)

