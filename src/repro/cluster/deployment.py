"""Deployments and pods: the replica-scaling API Ursa drives.

A :class:`Deployment` owns the pods of one microservice.  Scaling up places
new pods via the scheduler; each pod becomes *running* after a configurable
startup delay (container pull + boot).  Scaling down stops the youngest
pods first: a stopping pod is announced to the service layer (which drains
in-flight work), and its node resources are freed once the drain completes.

This is the only interface resource managers get -- exactly the Kubernetes
replica-count API the paper's systems use.
"""

from __future__ import annotations

import enum
from typing import Callable

from repro.cluster.node import Node
from repro.cluster.scheduler import Scheduler
from repro.errors import SchedulingError
from repro.sim.engine import Environment, Event

__all__ = ["Pod", "PodState", "Deployment"]


class PodState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    STOPPING = "stopping"
    STOPPED = "stopped"


class Pod:
    """One replica instance of a deployment."""

    def __init__(
        self, name: str, cpus: int, memory_gb: float, node: Node, env: Environment
    ) -> None:
        self.name = name
        self.cpus = cpus
        self.memory_gb = memory_gb
        self.node = node
        self.state = PodState.PENDING
        #: Fired by the service layer when in-flight work has drained.
        self.drained: Event = env.event()
        #: Set when a pending pod is cancelled before becoming running.
        self.cancelled = False

    def __repr__(self) -> str:
        return f"<Pod {self.name} {self.state.value} on {self.node.name}>"


class Deployment:
    """Replica set for one microservice.

    ``on_pod_running`` / ``on_pod_stopping`` connect the cluster substrate
    to the service layer: the former attaches a request-serving replica to
    the pod, the latter stops dispatch and triggers ``pod.drained`` when
    in-flight requests finish.
    """

    def __init__(
        self,
        env: Environment,
        scheduler: Scheduler,
        name: str,
        cpus_per_replica: int,
        memory_per_replica_gb: float,
        startup_delay_s: float = 5.0,
        on_pod_running: Callable[[Pod], None] | None = None,
        on_pod_stopping: Callable[[Pod], None] | None = None,
        cap_on_full: bool = False,
    ) -> None:
        if cpus_per_replica < 1:
            raise SchedulingError(
                f"{name}: cpus_per_replica must be >= 1 (static CPU policy), "
                f"got {cpus_per_replica}"
            )
        if startup_delay_s < 0:
            raise SchedulingError(f"{name}: negative startup delay")
        self.env = env
        self.scheduler = scheduler
        self.name = name
        self.cpus_per_replica = int(cpus_per_replica)
        self.memory_per_replica_gb = float(memory_per_replica_gb)
        self.startup_delay_s = float(startup_delay_s)
        self.on_pod_running = on_pod_running
        self.on_pod_stopping = on_pod_stopping
        #: When the cluster is full, stop scaling up instead of raising
        #: (budgeted fleet cells degrade to queueing, not a crash).
        self.cap_on_full = bool(cap_on_full)
        #: Pods a capped scale-up could not place (observability only).
        self.capped_scale_ups = 0
        self._pods: list[Pod] = []
        self._pod_seq = 0
        self.desired_replicas = 0

    # -- views --------------------------------------------------------------
    @property
    def pods(self) -> list[Pod]:
        """Pods that still hold resources (pending, running or stopping)."""
        return [p for p in self._pods if p.state != PodState.STOPPED]

    @property
    def running_pods(self) -> list[Pod]:
        return [p for p in self._pods if p.state == PodState.RUNNING]

    @property
    def replicas(self) -> int:
        """Number of running replicas."""
        return len(self.running_pods)

    @property
    def allocated_cpus(self) -> int:
        """CPUs currently reserved on nodes by this deployment."""
        return sum(p.cpus for p in self.pods)

    # -- scaling --------------------------------------------------------------
    def scale_to(self, replicas: int) -> None:
        """Set the desired replica count (the Kubernetes ``scale`` verb)."""
        if replicas < 0:
            raise SchedulingError(f"{self.name}: negative replica count")
        self.desired_replicas = int(replicas)
        current = [p for p in self._pods if p.state in (PodState.PENDING, PodState.RUNNING)]
        delta = self.desired_replicas - len(current)
        if delta > 0:
            for _ in range(delta):
                if not self._start_pod():
                    break
        elif delta < 0:
            # Stop youngest first; prefer cancelling pods still pending.
            victims = sorted(
                current, key=lambda p: (p.state != PodState.PENDING, -self._pods.index(p))
            )[: -delta]
            for pod in victims:
                self._stop_pod(pod)

    def _start_pod(self) -> bool:
        """Place one pod; returns False when a capped cluster is full."""
        if self.cap_on_full:
            node = self.scheduler.try_place(
                self.cpus_per_replica, self.memory_per_replica_gb
            )
            if node is None:
                self.capped_scale_ups += 1
                return False
        else:
            node = self.scheduler.place(
                self.cpus_per_replica, self.memory_per_replica_gb
            )
        self._pod_seq += 1
        pod = Pod(
            name=f"{self.name}-{self._pod_seq}",
            cpus=self.cpus_per_replica,
            memory_gb=self.memory_per_replica_gb,
            node=node,
            env=self.env,
        )
        self._pods.append(pod)
        self.env.process(self._startup(pod))
        return True

    def _startup(self, pod: Pod):
        if self.startup_delay_s > 0:
            yield self.env.timeout(self.startup_delay_s)
        if pod.cancelled:
            return
        pod.state = PodState.RUNNING
        if self.on_pod_running is not None:
            self.on_pod_running(pod)

    def _stop_pod(self, pod: Pod) -> None:
        if pod.state == PodState.PENDING:
            # Never became running: cancel and free immediately.
            pod.cancelled = True
            pod.state = PodState.STOPPED
            pod.node.free(pod.cpus, pod.memory_gb)
            return
        pod.state = PodState.STOPPING
        if self.on_pod_stopping is not None:
            self.on_pod_stopping(pod)
        else:
            pod.drained.succeed()
        self.env.process(self._await_drain(pod))

    def _await_drain(self, pod: Pod):
        if not pod.drained.triggered:
            yield pod.drained
        else:
            yield self.env.timeout(0)
        pod.state = PodState.STOPPED
        pod.node.free(pod.cpus, pod.memory_gb)
