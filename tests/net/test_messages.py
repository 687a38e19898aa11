"""Tests for call trees, requests and message queues."""

import pickle

import pytest

from repro.errors import TopologyError
from repro.net.messages import Call, CallMode, Request
from repro.net.mq import MessageQueue
from repro.sim import Environment


def test_call_validation():
    with pytest.raises(TopologyError):
        Call("")
    with pytest.raises(TopologyError):
        Call("svc", repeat=0)


def test_call_services_preorder_with_duplicates():
    tree = Call("a", children=(Call("b", children=(Call("c"),)), Call("b")))
    assert tree.services() == ["a", "b", "c", "b"]


def test_call_walk_and_depth():
    tree = Call("a", children=(Call("b", children=(Call("c"),)), Call("d")))
    assert [c.service for c in tree.walk()] == ["a", "b", "c", "d"]
    assert tree.depth() == 3
    assert Call("leaf").depth() == 1


def _mixed_call() -> Call:
    return Call(
        "root",
        children=(
            Call("r1", CallMode.RPC, repeat=2),
            Call("m1", CallMode.MQ),
            Call("e1", CallMode.EVENT, repeat=3),
            Call("r2", CallMode.RPC, children=(Call("leaf", CallMode.MQ),)),
            Call("m2", CallMode.MQ, repeat=2),
            Call("e2", CallMode.EVENT),
        ),
    )


def _leg_names(call: Call) -> tuple[list[str], list[str], list[str]]:
    return tuple([child.service for child in legs] for legs in call.legs)


def test_call_legs_keep_order_and_repeat_per_mode():
    call = _mixed_call()
    assert _leg_names(call) == (
        ["m1", "m2", "m2"],
        ["r1", "r1", "r2"],
        ["e1", "e1", "e1", "e2"],
    )
    rpc = call.legs[1]
    assert rpc[0] is rpc[1] is call.children[0]
    assert rpc[2].legs == ((Call("leaf", CallMode.MQ),), (), ())
    assert Call("leaf").legs == ((), (), ())


def test_call_legs_survive_pickle():
    call = _mixed_call()
    expected = _leg_names(call)
    loaded = pickle.loads(pickle.dumps(call))
    assert loaded == call
    assert _leg_names(loaded) == expected


def test_call_pickled_without_cached_legs_computes_them():
    # A Call pickled before it ever computed its legs has no cached
    # attribute -- the form every pre-existing cache entry has.
    call = _mixed_call()
    state = pickle.dumps(call)
    assert "legs" not in vars(call)
    loaded = pickle.loads(state)
    assert "legs" not in vars(loaded)
    assert _leg_names(loaded) == _leg_names(_mixed_call())


def test_request_latency_requires_completion():
    request = Request(request_class="r", arrival_time=1.0)
    with pytest.raises(ValueError):
        _ = request.latency
    request.completion_time = 3.5
    assert request.latency == 2.5


def test_request_ids_are_run_local():
    # Ids come from the owning Application, never from process-global
    # state (PAR002): ad-hoc requests stay unassigned.
    a = Request(request_class="r", arrival_time=0)
    b = Request(request_class="r", arrival_time=0, request_id=7)
    assert a.request_id == -1
    assert b.request_id == 7


def test_mq_priority_ordering():
    env = Environment()
    queue = MessageQueue(env, "q")
    queue.publish("low", priority=1)
    queue.publish("high", priority=0)
    queue.publish("high2", priority=0)
    got = []

    def consumer(env):
        for _ in range(3):
            item = yield queue.consume()
            got.append(MessageQueue.payload_of(item))

    env.process(consumer(env))
    env.run()
    assert got == ["high", "high2", "low"]
    assert queue.published == 3


def test_mq_publish_never_blocks():
    env = Environment()
    queue = MessageQueue(env, "q")
    for i in range(10_000):
        queue.publish(i)
    assert queue.depth == 10_000


def test_mq_cancel_consume():
    env = Environment()
    queue = MessageQueue(env, "q")
    event = queue.consume()
    queue.cancel_consume(event)
    queue.publish("x")
    # The cancelled getter must not swallow the message.
    assert queue.depth == 1
