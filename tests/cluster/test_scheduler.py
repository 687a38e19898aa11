"""Tests for the bin-packing scheduler."""

import pytest

from repro.cluster.node import Node
from repro.cluster.scheduler import Scheduler
from repro.errors import SchedulingError


def test_places_on_emptiest_node():
    nodes = [Node("a", 8, 16), Node("b", 16, 16)]
    sched = Scheduler(nodes)
    chosen = sched.place(2, 1.0)
    assert chosen.name == "b"


def test_rejects_when_full():
    sched = Scheduler([Node("a", 2, 4)])
    sched.place(2, 1.0)
    with pytest.raises(SchedulingError):
        sched.place(1, 1.0)


def test_needs_nodes():
    with pytest.raises(SchedulingError):
        Scheduler([])


def test_duplicate_names_rejected():
    with pytest.raises(SchedulingError):
        Scheduler([Node("a", 2, 4), Node("a", 4, 4)])


def test_totals():
    sched = Scheduler([Node("a", 2, 4), Node("b", 4, 4)])
    assert sched.free_cpus() == 6
    sched.place(3, 1.0)
    assert sched.free_cpus() == 3


def test_memory_constraint_respected():
    sched = Scheduler([Node("a", 100, 1.0), Node("b", 2, 64.0)])
    chosen = sched.place(1, 32.0)
    assert chosen.name == "b"


def test_deterministic_tiebreak():
    nodes = [Node("a", 8, 16), Node("b", 8, 16)]
    assert Scheduler(nodes).place(1, 1.0).name == "b"
