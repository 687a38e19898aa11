"""Process-pool fan-out for independent experiment runs.

Every grid-style §VII reproduction is a set of *independent* deployment
runs (one per app × load × manager cell): each run owns its own
:class:`~repro.sim.engine.Environment`, cluster, and random streams, so
runs can execute in separate worker processes without sharing state.
This module provides the fan-out primitive:

* :class:`RunPlan` -- a picklable description of one run: a module-level
  callable plus keyword arguments.  Closures cannot cross process
  boundaries, so plans must reference importable functions (e.g.
  :func:`repro.experiments.fig11_12_performance.run_cell`).
* :func:`run_many` -- execute plans on a shared worker pool and return
  their results *in plan order*, so tables rendered from the merged
  results are byte-identical to a sequential run.
* :func:`partition_seeds` -- derive one independent seed per plan from a
  master seed via :class:`~repro.sim.random.RandomStreams`, independent
  of the job count, so ``--jobs 4`` and ``--jobs 1`` produce identical
  output for the same master seed.
* :func:`warm_pool` / :func:`shutdown_pool` -- manage the process-wide
  worker pool explicitly (the end-to-end benchmark warms it up front).

The pool is *persistent*: the first pooled :func:`run_many` creates it
and every later grid in the same process reuses the same workers, so
pool spin-up and worker imports are paid once per CLI invocation, not
once per grid.  Workers are forked (where the platform supports it)
*after* any ``prewarm`` callable runs in the parent, so expensive shared
state -- app topologies, cached exploration artefacts -- is inherited
copy-on-write instead of being re-imported and re-unpickled per plan.

Determinism contract: parallelism only changes *where* a run executes,
never *what* it computes.  Each plan's seed is fixed up front by
:func:`partition_seeds` (or by the caller), results are merged in plan
order, and worker processes import the same code the parent would run.

``jobs=1`` (or a single plan) short-circuits to plain in-process
execution -- no pool, no pickling -- which keeps single-core containers
and debuggers (breakpoints do not survive fork) on the simple path.

Fan-out is one level deep: a plan that itself calls :func:`run_many`
(e.g. a cold artifact build inside a grid worker) runs its sub-plans
in-process.  The worker's copy of the parent's pool, inherited through
fork, is not its own to submit to, and nested pools would only
oversubscribe the CPUs the outer pool already keeps busy.

A failed pooled grid leaves no work behind: :func:`run_many` waits for
the plans still in flight and shuts the pool down before it raises, so
no executor thread touches module state afterwards and the next grid
starts on a fresh pool.

With ``REPRO_SANITIZE=1`` every plan -- pooled or sequential -- runs
under the :mod:`repro.experiments.sanitizer` guard, which raises if the
plan mutated any watched module-level global (the runtime counterpart
of the PAR002 lint rule).
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.experiments.sanitizer import run_guarded
from repro.sim.random import RandomStreams

__all__ = [
    "RunPlan",
    "run_many",
    "named_seeds",
    "partition_seeds",
    "default_jobs",
    "warm_pool",
    "shutdown_pool",
    "pool_stats",
]

#: Environment variable overriding the default worker count (useful for
#: CI runners whose ``os.cpu_count()`` exceeds their actual quota).
JOBS_ENV_VAR = "REPRO_JOBS"


@dataclass(frozen=True)
class RunPlan:
    """One unit of work for :func:`run_many`.

    ``fn`` must be picklable by reference (defined at module top level);
    ``kwargs`` must contain only picklable values.  ``label`` is for
    progress reporting only and never affects results.
    """

    fn: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""

    def __call__(self) -> Any:
        return self.fn(**self.kwargs)


def default_jobs() -> int:
    """Worker count used when the caller does not pass ``jobs``.

    ``REPRO_JOBS`` wins if set; otherwise the scheduler-visible CPU
    count (``sched_getaffinity`` respects container quotas better than
    ``os.cpu_count()``), floored at 1.
    """
    override = os.environ.get(JOBS_ENV_VAR)
    if override is not None:
        jobs = int(override)
        if jobs < 1:
            raise ValueError(f"{JOBS_ENV_VAR} must be >= 1, got {jobs}")
        return jobs
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # non-Linux platforms
        return max(1, os.cpu_count() or 1)


def partition_seeds(master_seed: int, n: int, namespace: str = "run") -> list[int]:
    """``n`` independent per-run seeds derived from ``master_seed``.

    Drawn from a dedicated :class:`RandomStreams` stream keyed by
    ``namespace``, so the partition depends only on ``(master_seed, n,
    namespace)`` -- never on the job count or execution order.  Plans
    that share a workload (e.g. the five managers of one app × load
    cell) should share one partitioned seed so every manager faces an
    identical request sequence.
    """
    if n < 0:
        raise ValueError(f"cannot partition seeds for n={n} runs")
    rng = RandomStreams(master_seed).stream(f"parallel:{namespace}")
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def named_seeds(
    master_seed: int, names: Sequence[str], namespace: str = "run"
) -> dict[str, int]:
    """One independent seed per *name*, derived from ``master_seed``.

    Unlike :func:`partition_seeds` (positional: the i-th plan gets the
    i-th draw), each seed here comes from a dedicated stream keyed by the
    name itself, so the mapping is invariant to the order names are
    given in -- and to adding or removing other names.  Fleet cells
    (:mod:`repro.fleet`) use this so reordering the cell list, or
    growing the fleet, never reseeds existing cells.
    """
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate names in seed derivation: {sorted(names)}")
    streams = RandomStreams(master_seed)
    return {
        name: int(
            streams.stream(f"parallel:{namespace}:{name}").integers(
                0, 2**31 - 1
            )
        )
        for name in names
    }


def _execute(plan: RunPlan) -> Any:
    return run_guarded(plan.fn, plan.kwargs, label=plan.label)


def _in_worker() -> bool:
    """True inside a process started by :mod:`multiprocessing` -- i.e. a
    pool worker, which must not fan out again."""
    return multiprocessing.parent_process() is not None


#: The process-wide worker pool, created by the first pooled
#: :func:`run_many` (or explicitly by :func:`warm_pool`) and reused by
#: every later grid in this process.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0


def _set_pool(pool: ProcessPoolExecutor | None, workers: int) -> None:
    """The one place the pool globals are rebound.

    Static reachability sees this from worker entry points (a cold
    artifact build in a grid worker calls :func:`run_many`), but a worker
    never gets here: :func:`run_many` runs in-process inside one.  No
    result depends on the pool either way.
    """
    global _pool, _pool_workers
    # ursalint: disable=PAR002 -- parent-only pool bookkeeping (see docstring)
    _pool, _pool_workers = pool, workers


def warm_pool(
    jobs: int | None = None, prewarm: Callable[[], Any] | None = None
) -> None:
    """Create (or grow) the shared worker pool.

    ``prewarm`` runs in the *parent* first, so anything it builds -- app
    topologies, cached artefacts -- exists before workers fork and is
    inherited copy-on-write.  An existing pool big enough for ``jobs``
    is kept as-is (its workers read prewarmed artefacts through the
    on-disk artifact cache instead); a smaller one is drained and
    replaced.  Workers use the ``fork`` start method where available so
    inheritance is memory-sharing, not pickling.
    """
    if jobs is None:
        jobs = default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if prewarm is not None:
        prewarm()
    # A crashed worker poisons a ProcessPoolExecutor permanently; replace
    # it so one bad grid cannot break every later grid.
    broken = _pool is not None and getattr(_pool, "_broken", False)
    if _pool is not None and _pool_workers >= jobs and not broken:
        return
    shutdown_pool()
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    _set_pool(ProcessPoolExecutor(max_workers=jobs, mp_context=context), jobs)


def shutdown_pool() -> None:
    """Drain and discard the shared pool (no-op when none exists).

    Waits for running plans and joins the executor's threads.  Runs at
    interpreter exit; tests call it directly to return to a cold-pool
    state.
    """
    if _pool is not None:
        _pool.shutdown(wait=True)
        _set_pool(None, 0)


atexit.register(shutdown_pool)


def pool_stats() -> dict[str, Any]:
    """Introspection for tests: is the pool warm, and how many workers?"""
    return {"alive": _pool is not None, "workers": _pool_workers}


def run_many(
    plans: Sequence[RunPlan],
    jobs: int | None = None,
    on_complete: Callable[[RunPlan, Any], None] | None = None,
    prewarm: Callable[[], Any] | None = None,
) -> list[Any]:
    """Execute ``plans`` and return their results in plan order.

    ``jobs=None`` uses :func:`default_jobs`; ``jobs=1`` runs sequentially
    in-process, and so does any call made inside a pool worker.  Pooled
    runs reuse the process-wide pool created by the first pooled call
    (see :func:`warm_pool`); at most ``jobs`` plans are in flight at once
    even when the shared pool is larger, so a ``jobs=2`` grid never runs
    4-wide just because an earlier grid asked for 4 workers.  Results
    come back in the order plans were given regardless of completion
    order, which is what makes parallel output byte-identical to
    sequential.

    ``prewarm`` (optional) is called in the parent before any plan runs
    -- before workers fork, when this call creates the pool -- so shared
    artefacts are built once instead of once per worker.

    ``on_complete(plan, result)`` is invoked in the *parent* process as
    each result lands (progress reporting, incremental persistence).  In
    pooled mode it fires in completion order -- which may differ from
    plan order -- so callbacks must not assume ordering; the returned
    list is the ordering contract.  A callback or plan exception
    propagates once the plans already in flight have finished; plans not
    yet submitted never start, and the pool is shut down (the next
    pooled call creates a fresh one).
    """
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    plans = list(plans)
    if jobs is None:
        jobs = default_jobs()
    if jobs == 1 or len(plans) <= 1 or _in_worker():
        if prewarm is not None:
            prewarm()
        results = []
        for plan in plans:
            result = _execute(plan)
            if on_complete is not None:
                on_complete(plan, result)
            results.append(result)
        return results

    warm_pool(jobs, prewarm=prewarm)

    # Sliding-window submission: at most ``jobs`` plans in flight.
    results: list[Any] = [None] * len(plans)
    in_flight: dict[Any, int] = {}
    next_plan = 0
    try:
        while next_plan < len(plans) or in_flight:
            while next_plan < len(plans) and len(in_flight) < jobs:
                future = _pool.submit(_execute, plans[next_plan])
                in_flight[future] = next_plan
                next_plan += 1
            done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
            for future in done:
                index = in_flight.pop(future)
                results[index] = future.result()
                if on_complete is not None:
                    on_complete(plans[index], results[index])
    except BaseException:
        # Nothing beyond the window was submitted, so shutting down waits
        # for exactly the in-flight plans and then joins the executor's
        # management thread: no future or thread outlives the raise.
        shutdown_pool()
        raise
    # Stored by plan index, so completion order is irrelevant to the
    # merged output.
    return results
