"""The cluster facade: the "Kubernetes API" resource managers talk to.

Holds nodes, the scheduler and all deployments, and exposes the operations
Ursa and the baselines use:

* ``create_deployment(...)`` -- register a microservice's replica set;
* ``scale(service, n)`` -- set replica counts;
* ``allocated_cpus()`` / ``replicas()`` -- observability for accounting.

:class:`ClusterOptions` is the plain-data shape of the cluster a run
deploys onto; :class:`repro.apps.topology.Application` builds it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cluster.deployment import Deployment, Pod
from repro.cluster.node import Node
from repro.cluster.scheduler import Scheduler
from repro.errors import SchedulingError
from repro.sim.engine import Environment

__all__ = ["Cluster", "ClusterOptions"]


@dataclass(frozen=True)
class ClusterOptions:
    """Shape of the cluster a run deploys onto (plain data, picklable).

    The default is the testbed every run deploys onto: 8 homogeneous
    96-CPU / 256-GB nodes.  Fleet cells (:mod:`repro.fleet`) shrink this
    to a per-tenant node budget and turn on ``cap_on_full`` so a tight
    budget degrades to queueing (SLA violations) instead of raising
    :class:`~repro.errors.SchedulingError` out of the manager.
    """

    nodes: int = 8
    node_cpus: int = 96
    node_memory_gb: float = 256.0
    #: Cap scale-ups at cluster capacity instead of raising when full.
    cap_on_full: bool = False

    def build_nodes(self) -> list[Node]:
        return [
            Node(f"run-{i}", self.node_cpus, self.node_memory_gb)
            for i in range(self.nodes)
        ]


class Cluster:
    """A simulated cluster with named deployments."""

    def __init__(
        self,
        env: Environment,
        nodes: list[Node],
        cap_on_full: bool = False,
    ) -> None:
        self.env = env
        self.nodes = nodes
        self.scheduler = Scheduler(self.nodes)
        #: When True, deployments cap scale-ups at cluster capacity
        #: instead of raising SchedulingError (budgeted fleet cells).
        self.cap_on_full = bool(cap_on_full)
        self._deployments: dict[str, Deployment] = {}

    def create_deployment(
        self,
        name: str,
        cpus_per_replica: int,
        memory_per_replica_gb: float = 1.0,
        replicas: int = 1,
        startup_delay_s: float = 5.0,
        on_pod_running: Callable[[Pod], None] | None = None,
        on_pod_stopping: Callable[[Pod], None] | None = None,
    ) -> Deployment:
        """Register a new deployment and start its initial replicas."""
        if name in self._deployments:
            raise SchedulingError(f"deployment {name!r} already exists")
        deployment = Deployment(
            env=self.env,
            scheduler=self.scheduler,
            name=name,
            cpus_per_replica=cpus_per_replica,
            memory_per_replica_gb=memory_per_replica_gb,
            startup_delay_s=startup_delay_s,
            on_pod_running=on_pod_running,
            on_pod_stopping=on_pod_stopping,
            cap_on_full=self.cap_on_full,
        )
        self._deployments[name] = deployment
        if replicas:
            deployment.scale_to(replicas)
        return deployment

    def deployment(self, name: str) -> Deployment:
        try:
            return self._deployments[name]
        except KeyError:
            raise SchedulingError(f"unknown deployment {name!r}") from None

    def scale(self, name: str, replicas: int) -> None:
        """Set the replica count of deployment ``name``."""
        self.deployment(name).scale_to(replicas)

    def replicas(self, name: str) -> int:
        return self.deployment(name).replicas

    def allocated_cpus(self, name: str | None = None) -> int:
        """CPUs reserved by one deployment, or by all of them."""
        if name is not None:
            return self.deployment(name).allocated_cpus
        return sum(d.allocated_cpus for d in self._deployments.values())

    def capped_scale_ups(self) -> int:
        """Scale-up pods refused at capacity (capped clusters only)."""
        return sum(d.capped_scale_ups for d in self._deployments.values())

    def free_cpus(self) -> int:
        return self.scheduler.free_cpus()
