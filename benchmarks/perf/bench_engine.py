#!/usr/bin/env python3
"""Engine hot-path microbenchmark: pure event churn through the DES kernel.

Measures events/second through :mod:`repro.sim.engine` and
:mod:`repro.sim.resources` on three synthetic workloads that exercise the
scheduling hot paths without any application logic:

* ``timeout_churn`` -- N processes looping on ``env.timeout``; stresses
  ``Environment.timeout`` / the drain loop / ``Process._resume``.
* ``event_pingpong`` -- process pairs waking each other through pending
  events; stresses ``succeed`` + callback dispatch.
* ``resource_contention`` -- processes cycling acquire/hold/release on a
  shared :class:`Resource`; stresses the waiter heap and request events.

A ``slo_monitor_churn`` probe (outside the composite) drives the
application completion hook with a deterministic latency pattern, SLO
monitor attached vs detached, to bound the observer overhead of
:class:`repro.telemetry.slo.SLOMonitor` -- and to pin that the
monitor-off path costs nothing beyond the empty-listener guard.

An allocation probe re-runs each composite workload under ``tracemalloc``
and reports peak traced bytes per event plus garbage-collector collection
counts, so allocator regressions in the event core are caught by the same
trend gate as throughput regressions (``check_regression.py`` enforces a
ceiling on the timeout-churn bytes/event).

The composite score (total events across all workloads / total seconds) is
written to ``BENCH_engine.json`` at the repository root together with the
recorded pre-optimization baseline, so the speedup trajectory is tracked
across PRs.  Event counts are taken from the engine's own deterministic
scheduling sequence number, so two kernels are compared on byte-identical
workloads.

Run:  PYTHONPATH=src python benchmarks/perf/bench_engine.py
      PYTHONPATH=src python benchmarks/perf/bench_engine.py --smoke
The ``--smoke`` mode (used by CI) shrinks every workload to a few
thousand events and skips the ``BENCH_engine.json`` write: it exists to
keep the benchmark code importable and runnable between scheduled
``bench.yml`` runs, not to produce numbers.
"""

from __future__ import annotations

import gc
import json
import sys
import tracemalloc

# Wall-clock timing is the point of this benchmark: it measures the real
# execution speed of the simulation kernel, not simulated time.  The
# benchmarks/perf/ lint profile allowlists SIM001 for exactly this reason
# (see docs/performance.md and repro.analysis.policy).
import time
from pathlib import Path

from repro.sim.engine import Environment
from repro.sim.resources import Resource, Store
from repro.telemetry.slo import SLOMonitor, SLOSpec

REPO_ROOT = Path(__file__).resolve().parents[2]
OUTPUT = REPO_ROOT / "BENCH_engine.json"

#: Pre-PR kernel baseline, measured on the reference container (1 CPU)
#: immediately before the hot-path rewrite.  Events/sec for each workload
#: at the iteration counts below.  Re-baseline only when the workloads
#: themselves change.
RECORDED_BASELINE = {
    "timeout_churn": 640000.0,
    "event_pingpong": 580000.0,
    "resource_contention": 500000.0,
    "store_handoff": 500000.0,
    "composite": 560000.0,
}

#: Pre-freelist allocator baseline, measured on the same container
#: immediately before the slotted event core (pooled Timeouts + SoA
#: now-bucket) landed.  ``bytes_per_event`` is the tracemalloc live-peak
#: per event; ``timeout_allocs_per_event`` is fresh Timeout
#: constructions per event, which pre-freelist equals the workload's
#: timeouts-per-event ratio by construction (every timeout was a fresh
#: object).  Re-baseline only when the workloads change.
RECORDED_ALLOC_BASELINE = {
    "timeout_churn": {"bytes_per_event": 0.54, "timeout_allocs_per_event": 0.999},
    "event_pingpong": {"bytes_per_event": 0.36, "timeout_allocs_per_event": 0.4998},
    "resource_contention": {
        "bytes_per_event": 0.55,
        "timeout_allocs_per_event": 0.4995,
    },
    "store_handoff": {"bytes_per_event": 0.70, "timeout_allocs_per_event": 0.3329},
}

#: Workload shrink factors for ``--smoke`` (CI): a few thousand events,
#: just enough to execute every benchmark code path.
SMOKE_KWARGS: dict[str, dict[str, int]] = {
    "timeout_churn": {"n_procs": 10, "iterations": 50},
    "event_pingpong": {"n_pairs": 5, "iterations": 50},
    "resource_contention": {"n_procs": 8, "capacity": 4, "iterations": 50},
    "store_handoff": {"n_pairs": 4, "iterations": 50},
}


def timeout_churn(n_procs: int = 50, iterations: int = 2_000) -> Environment:
    env = Environment()

    def looper(env: Environment, delay: float) -> object:
        for _ in range(iterations):
            yield env.timeout(delay)

    for i in range(n_procs):
        env.process(looper(env, 0.1 + 0.01 * i))
    env.run()
    return env


def event_pingpong(n_pairs: int = 25, iterations: int = 2_000) -> Environment:
    env = Environment()

    def pinger(env: Environment, inbox: list, peer_inbox: list) -> object:
        for _ in range(iterations):
            event = env.event()
            peer_inbox.append(event)
            yield env.timeout(0.01)
            event.succeed()
            if inbox:
                waiting = inbox.pop()
                if not waiting.triggered:
                    yield waiting

    for _ in range(n_pairs):
        a_box: list = []
        b_box: list = []
        env.process(pinger(env, a_box, b_box))
        env.process(pinger(env, b_box, a_box))
    env.run()
    return env


def resource_contention(
    n_procs: int = 40, capacity: int = 8, iterations: int = 1_000
) -> Environment:
    env = Environment()
    resource = Resource(env, capacity=capacity)

    def worker(env: Environment, resource: Resource, priority: int) -> object:
        for _ in range(iterations):
            yield resource.acquire(priority=priority % 3)
            try:
                yield env.timeout(0.05)
            finally:
                resource.release()

    for i in range(n_procs):
        env.process(worker(env, resource, i))
    env.run()
    return env


def store_handoff(n_pairs: int = 20, iterations: int = 1_000) -> Environment:
    env = Environment()
    store = Store(env, capacity=16)

    def producer(env: Environment, store: Store) -> object:
        for i in range(iterations):
            yield store.put(i)
            yield env.timeout(0.02)

    def consumer(env: Environment, store: Store) -> object:
        for _ in range(iterations):
            yield store.get()

    for _ in range(n_pairs):
        env.process(producer(env, store))
        env.process(consumer(env, store))
    env.run()
    return env


WORKLOADS = {
    "timeout_churn": timeout_churn,
    "event_pingpong": event_pingpong,
    "resource_contention": resource_contention,
    "store_handoff": store_handoff,
}


def _slo_probe(n_requests: int, with_monitor: bool) -> float:
    """One timed completion-churn run, returning completions/sec.

    Mirrors the topology's completion hook exactly: the monitor-off path
    is the same empty-listener-list guard ``_on_complete`` takes when no
    :class:`SLOMonitor` is attached, so its cost *is* the cost a run
    without a monitor pays (analogous to ``Environment(trace=None)``).
    Latencies are a fixed multiplicative-hash pattern -- deterministic,
    spread across good and bad relative to the 100 ms target -- so both
    modes fold byte-identical observations.
    """
    classes = ("read", "write")
    now = 0.0
    listeners: list = []
    if with_monitor:
        specs = tuple(SLOSpec(cls, target_s=0.1) for cls in classes)
        monitor = SLOMonitor(specs, clock=lambda: now)
        listeners.append(monitor.observe)
    start = time.perf_counter()
    for i in range(n_requests):
        now += 0.001
        latency = 0.02 + 0.18 * ((i * 2654435761) % 97) / 97.0
        request_class = classes[i & 1]
        if listeners:
            for listener in listeners:
                listener(request_class, latency)
    elapsed = time.perf_counter() - start
    return n_requests / elapsed


def bench_slo_monitor(repeats: int = 3, n_requests: int = 200_000) -> dict:
    """Best-of-``repeats`` completion churn with the SLO monitor on vs off."""
    rates = {}
    for mode, with_monitor in (("off", False), ("on", True)):
        best = 0.0
        for _ in range(repeats):
            best = max(best, _slo_probe(n_requests, with_monitor))
        rates[mode] = round(best, 1)
    return {
        "workload": "slo_monitor_churn",
        "completions": n_requests,
        "monitor_off_completions_per_sec": rates["off"],
        "monitor_on_completions_per_sec": rates["on"],
        "monitor_overhead_fraction": round(1.0 - rates["on"] / rates["off"], 4),
    }


def measure_allocations(
    kwargs_by_name: dict[str, dict[str, int]] | None = None,
) -> dict:
    """Allocator pressure per workload: live peak, GC runs, object churn.

    Runs each composite workload once under ``tracemalloc`` (separately
    from the timed runs -- tracing costs ~2x wall time) and reports:

    * ``bytes_per_event`` -- tracemalloc peak / events: the *live*
      allocation high-water mark.  Transient per-event objects are freed
      before the next event, so this catches footprint regressions
      (leaked queue entries, an unbounded pool) but by construction
      cannot see balanced churn.
    * ``gc_collections`` -- collector runs triggered by the workload.
    * ``timeout_allocs_per_event`` / ``timeout_alloc_bytes_per_event``
      -- the churn the freelist removes, from the engine's own counters:
      fresh ``Timeout`` constructions (and their measured object +
      callbacks-list bytes) per event.  Before the freelist every
      timeout was a fresh object, i.e. the pre-change value of
      ``timeout_allocs_per_event`` is exactly ``timeouts_per_event``
      (recorded alongside), so the reduction is self-calibrating.
    * ``timeout_reuse_fraction`` -- freelist hit rate.
    """
    overrides = kwargs_by_name or {}
    # Measured per-Timeout allocation traffic: the object itself plus the
    # callbacks list every fresh Timeout carries.
    probe_env = Environment()
    probe_timeout = probe_env.timeout(1.0)
    timeout_bytes = sys.getsizeof(probe_timeout) + sys.getsizeof(
        probe_timeout.callbacks
    )
    out: dict[str, dict[str, float | int]] = {}
    for name, workload in WORKLOADS.items():
        kwargs = overrides.get(name, {})
        gc.collect()
        collections_before = sum(s["collections"] for s in gc.get_stats())
        tracemalloc.start()
        env = workload(**kwargs)
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        collections_after = sum(s["collections"] for s in gc.get_stats())
        events = env._seq
        pool = env.timeout_pool_stats()
        timeouts = pool["allocs"] + pool["reuses"]
        out[name] = {
            "events": events,
            "peak_bytes": peak,
            "bytes_per_event": round(peak / events, 4),
            "gc_collections": collections_after - collections_before,
            "timeouts_per_event": round(timeouts / events, 4),
            "timeout_allocs_per_event": round(pool["allocs"] / events, 4),
            "timeout_alloc_bytes_per_event": round(
                pool["allocs"] * timeout_bytes / events, 4
            ),
            "timeout_reuse_fraction": (
                round(pool["reuses"] / timeouts, 4) if timeouts else 0.0
            ),
        }
    return out


def run_benchmark(
    repeats: int = 3,
    kwargs_by_name: dict[str, dict[str, int]] | None = None,
) -> dict:
    """Best-of-``repeats`` events/sec per workload plus a composite."""
    overrides = kwargs_by_name or {}
    results: dict[str, dict[str, float]] = {}
    total_events = 0
    total_seconds = 0.0
    for name, workload in WORKLOADS.items():
        kwargs = overrides.get(name, {})
        best_rate = 0.0
        best_events = 0
        best_elapsed = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            env = workload(**kwargs)
            elapsed = time.perf_counter() - start
            # _seq counts every event ever scheduled -- a deterministic,
            # kernel-version-independent measure of work done.
            events = env._seq
            rate = events / elapsed
            if rate > best_rate:
                best_rate, best_events, best_elapsed = rate, events, elapsed
        results[name] = {
            "events": best_events,
            "seconds": round(best_elapsed, 4),
            "events_per_sec": round(best_rate, 1),
        }
        total_events += best_events
        total_seconds += best_elapsed
    composite = total_events / total_seconds
    results["composite"] = {
        "events": total_events,
        "seconds": round(total_seconds, 4),
        "events_per_sec": round(composite, 1),
    }
    return results


def main() -> int:
    argv = sys.argv[1:]
    args = [a for a in argv if a != "--smoke"]
    smoke = "--smoke" in argv
    repeats = int(args[0]) if args else (1 if smoke else 3)
    if smoke:
        # CI smoke: execute every benchmark code path on tiny budgets and
        # never write BENCH_engine.json (the numbers are meaningless).
        current = run_benchmark(repeats=repeats, kwargs_by_name=SMOKE_KWARGS)
        slo_probe = bench_slo_monitor(repeats=repeats, n_requests=2_000)
        allocations = measure_allocations(SMOKE_KWARGS)
        print(
            json.dumps(
                {
                    "smoke": True,
                    "composite_events": current["composite"]["events"],
                    "slo_probe_completions": slo_probe["completions"],
                    "allocations": allocations,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    current = run_benchmark(repeats=repeats)
    payload = {
        "benchmark": "engine-events-per-sec",
        "baseline_events_per_sec": RECORDED_BASELINE,
        "baseline_bytes_per_event": RECORDED_ALLOC_BASELINE,
        "current": current,
        # Not part of the composite: the SLO probe and the allocation
        # probe are separate experiments (different instrumentation), so
        # the composite trend stays comparable across PRs.
        "slo_monitor": bench_slo_monitor(repeats=repeats),
        "allocations": measure_allocations(),
        "speedup_vs_baseline": {
            name: round(
                current[name]["events_per_sec"] / RECORDED_BASELINE[name], 3
            )
            for name in current
            if name in RECORDED_BASELINE
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload["speedup_vs_baseline"], indent=2))
    print(f"[saved to {OUTPUT}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
