"""Tests for node resource accounting."""

import pytest

from repro.cluster.node import Node
from repro.errors import SchedulingError


def test_allocation_and_free():
    node = Node("n", cpus=8, memory_gb=16)
    node.allocate(4, 8.0)
    assert node.cpus_free == 4
    assert node.memory_free_gb == pytest.approx(8.0)
    node.free(4, 8.0)
    assert node.cpus_free == 8


def test_fits():
    node = Node("n", cpus=4, memory_gb=8)
    assert node.fits(4, 8.0)
    assert not node.fits(5, 1.0)
    assert not node.fits(1, 9.0)


def test_over_allocation_rejected():
    node = Node("n", cpus=2, memory_gb=4)
    with pytest.raises(SchedulingError):
        node.allocate(3, 1.0)
    with pytest.raises(SchedulingError):
        node.allocate(1, 5.0)


def test_zero_cpu_pod_rejected():
    node = Node("n", cpus=2, memory_gb=4)
    with pytest.raises(SchedulingError):
        node.allocate(0, 1.0)


def test_over_free_rejected():
    node = Node("n", cpus=2, memory_gb=4)
    node.allocate(1, 1.0)
    with pytest.raises(SchedulingError):
        node.free(2, 1.0)


def test_invalid_node_specs():
    with pytest.raises(ValueError):
        Node("n", cpus=0, memory_gb=4)
    with pytest.raises(ValueError):
        Node("n", cpus=4, memory_gb=0)

