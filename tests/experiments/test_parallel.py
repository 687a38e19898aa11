"""Tests for the process-pool experiment fan-out.

The expensive grid experiments are exercised by ``benchmarks/``; here a
cheap deterministic cell function stands in for ``run_cell`` so the
determinism contract -- same master seed => identical merged output at
any job count; different master seeds diverge -- is checked in
milliseconds.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.experiments.parallel import (
    RunPlan,
    default_jobs,
    partition_seeds,
    pool_stats,
    run_many,
    shutdown_pool,
    warm_pool,
)
from repro.sim.random import RandomStreams

APPS = ("social-network", "media-service")
LOADS = ("constant", "dynamic")


def cheap_cell(app: str, load: str, seed: int) -> float:
    """Stand-in for a deployment run: deterministic in (app, load, seed)."""
    rng = RandomStreams(seed).stream(f"{app}:{load}")
    return float(rng.random())


def cheap_grid(master_seed: int, jobs: int) -> list[tuple[str, str, float]]:
    """Mirror of run_performance_grid's partition-then-fan-out shape."""
    workloads = [(a, lo) for a in APPS for lo in LOADS]
    seeds = dict(
        zip(workloads, partition_seeds(master_seed, len(workloads), "test-grid"))
    )
    plans = [
        RunPlan(
            cheap_cell,
            {"app": a, "load": lo, "seed": seeds[(a, lo)]},
            label=f"{a}:{lo}",
        )
        for (a, lo) in workloads
    ]
    results = run_many(plans, jobs=jobs)
    return [(a, lo, value) for (a, lo), value in zip(workloads, results)]


def failing_cell() -> None:
    raise RuntimeError("boom in worker")


def suicide_cell() -> None:
    """Kill the worker process outright (simulates an OOM kill)."""
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture()
def cold_pool():
    """Start and finish with no shared pool, whatever ran before."""
    shutdown_pool()
    yield
    shutdown_pool()


# -- seed partitioning -----------------------------------------------------


def test_partition_seeds_deterministic():
    assert partition_seeds(23, 8) == partition_seeds(23, 8)


def test_partition_seeds_depend_on_master_seed_and_namespace():
    assert partition_seeds(23, 4) != partition_seeds(24, 4)
    assert partition_seeds(23, 4, "a") != partition_seeds(23, 4, "b")


def test_partition_seeds_are_prefix_stable():
    # Growing the grid appends seeds without perturbing existing cells.
    assert partition_seeds(23, 8)[:4] == partition_seeds(23, 4)


def test_partition_seeds_shape_and_range():
    seeds = partition_seeds(5, 16)
    assert len(seeds) == 16
    assert all(isinstance(s, int) and 0 <= s < 2**31 for s in seeds)
    assert partition_seeds(5, 0) == []
    with pytest.raises(ValueError):
        partition_seeds(5, -1)


# -- run_many --------------------------------------------------------------


def test_jobs4_output_identical_to_jobs1_for_same_master_seed():
    sequential = cheap_grid(23, jobs=1)
    parallel = cheap_grid(23, jobs=4)
    assert parallel == sequential


def test_different_master_seeds_diverge():
    values_a = [v for _, _, v in cheap_grid(23, jobs=4)]
    values_b = [v for _, _, v in cheap_grid(24, jobs=4)]
    assert values_a != values_b


def test_results_come_back_in_plan_order():
    plans = [
        RunPlan(cheap_cell, {"app": "a", "load": "l", "seed": s}, label=str(s))
        for s in range(8)
    ]
    expected = [cheap_cell("a", "l", s) for s in range(8)]
    assert run_many(plans, jobs=3) == expected


def test_run_plan_is_callable():
    plan = RunPlan(cheap_cell, {"app": "x", "load": "y", "seed": 1})
    assert plan() == cheap_cell("x", "y", 1)


def test_worker_exception_propagates():
    plans = [RunPlan(cheap_cell, {"app": "a", "load": "l", "seed": 0}),
             RunPlan(failing_cell)]
    with pytest.raises(RuntimeError, match="boom in worker"):
        run_many(plans, jobs=2)
    with pytest.raises(RuntimeError, match="boom in worker"):
        run_many(plans, jobs=1)


def test_run_many_rejects_bad_jobs():
    with pytest.raises(ValueError):
        run_many([], jobs=0)


def test_run_many_empty_plans():
    assert run_many([], jobs=4) == []


# -- on_complete -----------------------------------------------------------


def test_on_complete_sequential_fires_in_plan_order():
    plans = [
        RunPlan(cheap_cell, {"app": "a", "load": "l", "seed": s}, label=f"s{s}")
        for s in range(5)
    ]
    seen = []
    results = run_many(
        plans, jobs=1, on_complete=lambda plan, result: seen.append((plan, result))
    )
    assert [plan for plan, _ in seen] == plans
    assert [result for _, result in seen] == results


def test_on_complete_pooled_fires_once_per_plan():
    plans = [
        RunPlan(cheap_cell, {"app": "a", "load": "l", "seed": s}, label=f"s{s}")
        for s in range(6)
    ]
    seen = {}
    results = run_many(
        plans, jobs=3, on_complete=lambda plan, result: seen.update({plan.label: result})
    )
    # Completion order is nondeterministic, but every plan reports exactly
    # once with its own result, and the returned list stays plan-ordered.
    assert seen == {plan.label: result for plan, result in zip(plans, results)}
    assert results == [cheap_cell("a", "l", s) for s in range(6)]


def test_on_complete_not_called_for_failed_plan():
    plans = [RunPlan(cheap_cell, {"app": "a", "load": "l", "seed": 0}),
             RunPlan(failing_cell)]
    seen = []
    for jobs in (1, 2):
        with pytest.raises(RuntimeError, match="boom in worker"):
            run_many(plans, jobs=jobs, on_complete=lambda plan, _r: seen.append(plan))
    assert all(plan is plans[0] for plan in seen)


# -- the persistent pool ---------------------------------------------------


def test_pool_persists_across_consecutive_grids(cold_pool):
    first = cheap_grid(23, jobs=2)
    second = cheap_grid(31, jobs=2)
    stats = pool_stats()
    assert stats["alive"]
    assert stats["workers"] >= 2
    assert stats["grids_served"] == 2
    # Reuse never leaks state between grids: both merged outputs equal
    # their sequential counterparts.
    assert first == cheap_grid(23, jobs=1)
    assert second == cheap_grid(31, jobs=1)


def test_jobs_invariance_on_a_wider_warm_pool(cold_pool):
    # A pool warmed for 4 workers serving a jobs=2 grid must produce the
    # same merged output as sequential: the sliding window caps in-flight
    # work, and determinism never depends on where plans run.
    warm_pool(4)
    assert cheap_grid(23, jobs=2) == cheap_grid(23, jobs=1)
    assert pool_stats()["workers"] == 4


def test_pool_grows_but_never_shrinks(cold_pool):
    warm_pool(2)
    assert pool_stats()["workers"] == 2
    warm_pool(3)
    assert pool_stats()["workers"] == 3
    warm_pool(2)  # smaller request keeps the bigger pool
    assert pool_stats()["workers"] == 3


def test_shutdown_pool_resets_and_is_idempotent(cold_pool):
    warm_pool(2)
    cheap_grid(23, jobs=2)
    shutdown_pool()
    shutdown_pool()
    assert pool_stats() == {"alive": False, "workers": 0, "grids_served": 0}


def test_prewarm_runs_once_in_parent(cold_pool):
    calls = []
    plans = [
        RunPlan(cheap_cell, {"app": "a", "load": "l", "seed": s}) for s in range(4)
    ]
    run_many(plans, jobs=2, prewarm=lambda: calls.append(os.getpid()))
    assert calls == [os.getpid()]
    # The sequential short-circuit honours prewarm too.
    run_many(plans[:1], jobs=1, prewarm=lambda: calls.append(os.getpid()))
    assert calls == [os.getpid()] * 2


def test_broken_pool_recovers_on_next_grid(cold_pool):
    # SIGKILLed workers poison a ProcessPoolExecutor permanently; the
    # next warm_pool must detect the carcass and replace it instead of
    # failing every later grid in the process.
    from concurrent.futures.process import BrokenProcessPool

    plans = [RunPlan(suicide_cell), RunPlan(suicide_cell)]
    with pytest.raises(BrokenProcessPool):
        run_many(plans, jobs=2)
    assert cheap_grid(23, jobs=2) == cheap_grid(23, jobs=1)


def test_on_complete_exception_leaves_pool_usable(cold_pool):
    plans = [
        RunPlan(cheap_cell, {"app": "a", "load": "l", "seed": s}) for s in range(6)
    ]

    def boom(_plan, _result):
        raise RuntimeError("callback boom")

    with pytest.raises(RuntimeError, match="callback boom"):
        run_many(plans, jobs=2, on_complete=boom)
    # The failed grid left no debris, and the next one gets a fresh pool.
    assert cheap_grid(23, jobs=2) == cheap_grid(23, jobs=1)


def test_failed_grid_leaves_no_pool_behind(cold_pool):
    # A plan failure must not leave in-flight futures, or an executor
    # thread still updating the pool, behind the raise: with
    # REPRO_SANITIZE=1 a later sequential plan would see that as drift.
    plans = [RunPlan(cheap_cell, {"app": "a", "load": "l", "seed": 0}),
             RunPlan(failing_cell)]
    with pytest.raises(RuntimeError, match="boom in worker"):
        run_many(plans, jobs=2)
    assert pool_stats() == {"alive": False, "workers": 0, "grids_served": 0}


#: A pooled grid whose plans each run a pooled grid of their own.  Run as
#: a script: the outer grid must start from a process that is not itself
#: a pool worker.
NESTED_GRID = """
import os
from repro.experiments.parallel import RunPlan, run_many

def inner(k):
    return os.getpid()

def outer(k):
    return os.getpid(), run_many([RunPlan(inner, {"k": i}) for i in range(3)], jobs=2)

if __name__ == "__main__":
    for pid, inner_pids in run_many([RunPlan(outer, {"k": k}) for k in range(2)], jobs=2):
        assert pid != os.getpid(), "outer plans ran in the parent"
        assert inner_pids == [pid] * 3, "inner plans left their worker"
    print("ok")
"""


def test_nested_run_many_runs_in_process_inside_a_worker(tmp_path):
    # A worker inherits the parent's pool object through fork; submitting
    # to that copy hangs forever.  The nested grid must run in-process.
    script = tmp_path / "nested_grid.py"
    script.write_text(NESTED_GRID)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    # Own session, so a hang can be killed with its pool workers.
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=30)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("nested run_many hung")
    assert proc.returncode == 0, err
    assert out.strip() == "ok"


# -- default_jobs ----------------------------------------------------------


def test_default_jobs_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "7")
    assert default_jobs() == 7


def test_default_jobs_rejects_bad_override(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "0")
    with pytest.raises(ValueError):
        default_jobs()


def test_default_jobs_without_override(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() >= 1
