"""The supported public API: config in, results out.

Everything an experiment, benchmark, test, or notebook needs rides
through this module -- frozen config types (:class:`RunOptions` and
friends), the run entry points (``run_*``), and the two high-level
verbs:

* :func:`simulate` -- one managed deployment (one grid cell).
* :func:`simulate_fleet` -- N budgeted tenant cells under a fleet-level
  node allocator.

Import from here, not from the implementation modules: ``repro.api`` is
the stability boundary (lint rule API002 enforces this for ``tests/``,
``benchmarks/``, and ``examples/``), and every name is re-exported lazily
from the top-level :mod:`repro` package::

    from repro.api import RunOptions, simulate

    result = simulate("social-network", options=RunOptions(seed=23))
    print(result.windowed_violation_rate, result.mean_cpu_allocation)

Loading this module imports what :func:`simulate` and
:func:`run_performance_grid` run --
:mod:`repro.experiments.fig11_12_performance` and the run loop under it
-- and nothing else.  Every other entry point and the fleet types
resolve on first access (see :data:`_LAZY`), so a run pays start-up
only for the code it can reach.  The first access
imports the name's module, so fetch entry points before a timed call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cluster.cluster import ClusterOptions
from repro.experiments.fig11_12_performance import (
    PerformanceGrid,
    run_cell,
    run_performance_grid,
)
from repro.experiments.runner import (
    DeploymentMetrics,
    DeploymentResult,
    RunOptions,
    ScaleProfile,
    SLOArtifacts,
    SLOOptions,
    TraceArtifacts,
    TracingOptions,
    run_deployment,
    scale_profile,
)
from repro.workload.mixes import RequestMix

if TYPE_CHECKING:
    from repro.fleet import FleetResult, FleetSpec

__all__ = [
    # config types
    "CellSpec",
    "ClusterOptions",
    "FleetSpec",
    "RequestMix",
    "RunOptions",
    "SLOOptions",
    "ScaleProfile",
    "TracingOptions",
    # result types
    "CellSignal",
    "DeploymentMetrics",
    "DeploymentResult",
    "FleetOutcome",
    "FleetResult",
    "PerformanceGrid",
    "SLOArtifacts",
    "TraceArtifacts",
    # entry points
    "default_fleet",
    "run_all_chains",
    "run_backpressure_ablation",
    "run_cell",
    "run_deployment",
    "run_diurnal_trace",
    "run_fleet",
    "run_grid_ablation",
    "run_model_accuracy",
    "run_performance_grid",
    "run_service_change",
    "run_table05",
    "run_table06",
    "run_threshold_profiling",
    "run_ttest_ablation",
    "scale_profile",
    "simulate",
    "simulate_fleet",
]

#: Re-exported name -> the module that defines it, imported on first access.
_LAZY = {
    "run_all_chains": "repro.experiments.fig02_backpressure",
    "run_threshold_profiling": "repro.experiments.fig04_thresholds",
    "run_table05": "repro.experiments.table05_exploration",
    "run_model_accuracy": "repro.experiments.fig09_10_model_accuracy",
    "run_diurnal_trace": "repro.experiments.fig13_diurnal",
    "run_table06": "repro.experiments.table06_control_plane",
    "run_service_change": "repro.experiments.fig14_service_change",
    "run_backpressure_ablation": "repro.experiments.ablations",
    "run_grid_ablation": "repro.experiments.ablations",
    "run_ttest_ablation": "repro.experiments.ablations",
    "CellSignal": "repro.fleet",
    "CellSpec": "repro.fleet",
    "FleetOutcome": "repro.fleet",
    "FleetResult": "repro.fleet",
    "FleetSpec": "repro.fleet",
    "default_fleet": "repro.fleet",
    "run_fleet": "repro.fleet",
}


def __getattr__(name: str):
    """Resolve a :data:`_LAZY` name by importing its module.

    Writes nothing to this module's globals, so the worker sanitizer
    (``REPRO_SANITIZE=1``) never sees them change; ``sys.modules``
    already makes a repeated access cheap.
    """
    import importlib

    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(__all__) | set(globals()))


def simulate(
    app_name: str,
    load_kind: str = "constant",
    manager: str = "ursa",
    options: RunOptions | None = None,
) -> DeploymentResult:
    """One managed deployment of ``app_name`` (one grid cell).

    Thin, stable veneer over :func:`run_cell`: the app's spec, request
    mix, and load pattern are resolved from the benchmark defaults, the
    chosen manager is attached, and the run executes under ``options``.
    """
    return run_cell(app_name, load_kind, manager, options)


def simulate_fleet(
    spec: FleetSpec | int | None = None,
    options: RunOptions | None = None,
    jobs: int | None = None,
    on_complete=None,
) -> FleetResult:
    """Run a fleet of budgeted tenant cells (see :mod:`repro.fleet`).

    ``spec`` may be a full :class:`FleetSpec`, an int (a
    :func:`default_fleet` of that many cells), or ``None`` (the default
    8-cell fleet).  The fleet package is imported on the first call.
    """
    from repro.fleet import default_fleet, run_fleet

    if isinstance(spec, int):
        spec = default_fleet(spec)
    return run_fleet(spec, options=options, jobs=jobs, on_complete=on_complete)
