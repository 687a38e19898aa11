"""Kubernetes-like cluster substrate: nodes, pods, deployments, scheduler."""

from repro.cluster.cluster import Cluster, ClusterOptions
from repro.cluster.deployment import Deployment, Pod, PodState
from repro.cluster.node import Node
from repro.cluster.scheduler import Scheduler

__all__ = [
    "Cluster",
    "ClusterOptions",
    "Deployment",
    "Node",
    "Pod",
    "PodState",
    "Scheduler",
]
