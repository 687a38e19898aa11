"""Tests for the engine trace hook and the run-digest helpers."""

import hashlib
import struct

import pytest

from repro.sim.engine import _TRACE_CHUNK, AnyOf, Environment, Event
from repro.sim.resources import Resource
from repro.sim.trace import RunDigest, combine_digests
from tests.sim.stepping import next_time, step


def _workload(env: Environment, seed: int, drain=Environment.run) -> None:
    """A small deterministic mix of timeouts, events, and contention."""
    resource = Resource(env, capacity=2)

    def looper(env, delay):
        for _ in range(20):
            yield env.timeout(delay)

    def contender(env, resource, priority):
        for _ in range(10):
            yield resource.acquire(priority=priority)
            try:
                yield env.timeout(0.05)
            finally:
                resource.release()

    for i in range(4):
        env.process(looper(env, 0.1 + 0.01 * ((seed + i) % 5)))
    for i in range(3):
        env.process(contender(env, resource, i % 2))
    drain(env)


def _entries(rows) -> list[tuple[float, int, int, str]]:
    """``(when, priority, seq, type name)`` of each trace row."""
    return [(when, priority, seq, cls.__name__) for when, priority, seq, cls in rows]


def test_trace_hook_sees_every_processed_event():
    rows: list[tuple] = []
    env = Environment(trace=rows.extend)
    _workload(env, seed=0)
    assert len(rows) > 0
    times = [when for when, _p, _s, _cls in rows]
    assert times == sorted(times)
    assert len(rows) == env._seq


def test_traced_run_matches_untraced_timeline():
    """The hook is a pure observer: tracing must not change the schedule."""
    untraced = Environment()
    _workload(untraced, seed=3)
    traced = Environment(trace=[].extend)
    _workload(traced, seed=3)
    assert traced.now == untraced.now
    assert traced._seq == untraced._seq


def test_recorder_is_deterministic_across_runs():
    traces = []
    for _ in range(2):
        rows: list[tuple] = []
        env = Environment(trace=rows.extend)
        _workload(env, seed=1)
        traces.append(_entries(rows))
    assert traces[0] == traces[1]


def test_digest_matches_iff_traces_match():
    def run(seed: int) -> tuple[str, list]:
        rows: list[tuple] = []
        digest = RunDigest()

        def both(chunk):
            rows.extend(chunk)
            digest(chunk)

        env = Environment(trace=both)
        _workload(env, seed=seed)
        return digest.hexdigest(), _entries(rows)

    d1, t1 = run(0)
    d2, t2 = run(0)
    d3, t3 = run(2)
    assert (d1, t1) == (d2, t2)
    assert t3 != t1
    assert d3 != d1


def test_digest_counts_events_and_does_not_finalise():
    digest = RunDigest()
    env = Environment(trace=digest)
    _workload(env, seed=0)
    assert digest.events > 0
    first = digest.hexdigest()
    # hexdigest() must not finalise: the hook can keep updating after.
    assert digest.hexdigest() == first
    digest([(env.now + 1.0, 0, 10**6, Event)])
    assert digest.hexdigest() != first


@pytest.mark.parametrize("until", [5.0, None])
def test_trace_hook_with_until(until):
    rows: list[tuple] = []
    env = Environment(trace=rows.extend)

    def proc(env):
        for _ in range(10):
            yield env.timeout(1.0)

    env.process(proc(env))
    env.run(until=until)
    assert len(rows) > 0


def test_combine_digests_is_order_invariant():
    parts = {"front": "aa" * 16, "work": "bb" * 16, "db": "cc" * 16}
    combined = combine_digests(parts)
    assert len(combined) == 32 and int(combined, 16) >= 0
    assert combine_digests(dict(reversed(list(parts.items())))) == combined
    assert combine_digests(dict(sorted(parts.items()))) == combined


def test_combine_digests_binds_names_to_digests():
    parts = {"front": "aa" * 16, "work": "bb" * 16}
    combined = combine_digests(parts)
    # Swapping which service produced which digest, changing one digest,
    # or dropping a service all change the combined value.
    assert combine_digests({"front": "bb" * 16, "work": "aa" * 16}) != combined
    assert combine_digests({"front": "aa" * 16, "work": "bc" * 16}) != combined
    assert combine_digests({"front": "aa" * 16}) != combined


def test_combine_digests_hashes_service_lines():
    import hashlib

    expected = hashlib.blake2b(b"a:01\nb:02\n", digest_size=16).hexdigest()
    assert combine_digests({"b": "02", "a": "01"}) == expected


def _reference_digest(entries) -> str:
    """The per-event encoding: ``<dqq`` plus the ASCII type name, hashed
    in one stream."""
    reference = hashlib.blake2b(digest_size=16)
    for when, priority, seq, name in entries:
        reference.update(struct.pack("<dqq", when, priority, seq))
        reference.update(name.encode("ascii"))
    return reference.hexdigest()


@pytest.mark.parametrize("n_events", [0, 255, 256, 257, 10_007])
def test_batched_digest_hashes_the_per_event_byte_stream(n_events):
    env = Environment()
    kinds = [env.event(), env.timeout(1.0), AnyOf(env, [env.event()])]
    recorded: list[tuple] = []
    digest = RunDigest()
    checkpoints = {0, 1, 100, 255, 256, 300, 511, 512, 4096, n_events}
    for i in range(n_events + 1):
        if i in checkpoints:
            # hexdigest() between chunks folds a partial chunk; the stream
            # must continue exactly where it left off.
            assert digest.events == len(recorded) == i
            assert digest.hexdigest() == _reference_digest(_entries(recorded))
        if i == n_events:
            break
        rows = [(i * 0.25, i % 2, i + 1, type(kinds[i % 3]))]
        recorded.extend(rows)
        digest(rows)
    assert digest.events == n_events


def _no_drain(env: Environment) -> None:
    """Leave the processes pending (several workloads, one drain)."""


def _stepped(env: Environment) -> None:
    """Drain ``env`` one event at a time: one row per hook call."""
    while next_time(env) < float("inf"):
        step(env)


def test_batched_digest_matches_reference_on_a_real_run():
    recorded: list[tuple] = []
    digest = RunDigest()
    calls = []

    def both(rows):
        calls.append(len(rows))
        recorded.extend(rows)
        digest(rows)

    env = Environment(trace=both)
    for seed in range(3):
        _workload(env, seed=seed, drain=_no_drain)
    env.run()
    assert digest.events == len(recorded) > 256
    assert digest.hexdigest() == _reference_digest(_entries(recorded))
    # One drain: full buffers, then the partial one when it returns.
    assert sum(calls) == len(recorded)
    assert calls[:-1] == [_TRACE_CHUNK] * (len(calls) - 1)
    assert 0 < calls[-1] <= _TRACE_CHUNK

    # The same workloads drained one event per hook call give the same
    # rows, so the kernel's buffering is invisible in the stream.
    per_event: list[tuple] = []
    per_event_digest = RunDigest()

    def one_at_a_time(rows):
        assert len(rows) == 1
        per_event.extend(rows)
        per_event_digest(rows)

    stepped = Environment(trace=one_at_a_time)
    for seed in range(3):
        _workload(stepped, seed=seed, drain=_no_drain)
    _stepped(stepped)
    assert per_event == recorded
    assert per_event_digest.hexdigest() == digest.hexdigest()


def test_hook_rows_hold_event_types():
    seen = []
    env = Environment(trace=seen.extend)
    _workload(env, seed=0)
    assert seen and all(isinstance(cls, type) for _w, _p, _s, cls in seen)
    assert {cls.__name__ for _w, _p, _s, cls in seen} >= {"Timeout", "_Request"}
