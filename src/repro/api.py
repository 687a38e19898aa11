"""The supported public API: config in, results out.

Everything an experiment, benchmark, test, or notebook needs rides
through this module -- frozen config types (:class:`RunOptions` and
friends), the run entry points (``run_*``), and the three high-level
verbs:

* :func:`simulate` -- one managed deployment (one grid cell).
* :func:`simulate_grid` -- the (app x load x manager) performance grid.
* :func:`simulate_fleet` -- N budgeted tenant cells under a fleet-level
  node allocator.

Import from here, not from the implementation modules: ``repro.api`` is
the stability boundary (lint rule API002 enforces this for ``tests/``,
``benchmarks/``, and ``examples/``), and every name is re-exported lazily
from the top-level :mod:`repro` package::

    from repro.api import RunOptions, simulate

    result = simulate("social-network", options=RunOptions(seed=23))
    print(result.windowed_violation_rate, result.mean_cpu_allocation)
"""

from __future__ import annotations

from repro.cluster.cluster import ClusterOptions
from repro.experiments.ablations import (
    run_backpressure_ablation,
    run_grid_ablation,
    run_ttest_ablation,
)
from repro.experiments.fig02_backpressure import run_all_chains
from repro.experiments.fig04_thresholds import run_threshold_profiling
from repro.experiments.fig09_10_model_accuracy import run_model_accuracy
from repro.experiments.fig11_12_performance import (
    PerformanceGrid,
    run_cell,
    run_performance_grid,
)
from repro.experiments.fig13_diurnal import run_diurnal_trace
from repro.experiments.fig14_service_change import run_service_change
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
from repro.experiments.table05_exploration import run_table05
from repro.experiments.table06_control_plane import run_table06
from repro.fleet import (
    CellSignal,
    CellSpec,
    FleetOutcome,
    FleetResult,
    FleetSpec,
    default_fleet,
    run_fleet,
)
from repro.workload.mixes import RequestMix

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
    "simulate_grid",
]


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


def simulate_grid(
    apps: tuple[str, ...],
    loads: tuple[str, ...] | None = None,
    managers: tuple[str, ...] | None = None,
    options: RunOptions | None = None,
    jobs: int | None = None,
    on_complete=None,
) -> PerformanceGrid:
    """The (app x load x manager) grid, fanned out across ``jobs``.

    ``None`` for ``loads``/``managers`` means the full Fig. 11/12 axes.
    """
    kwargs: dict = {}
    if loads is not None:
        kwargs["loads"] = loads
    if managers is not None:
        kwargs["managers"] = managers
    return run_performance_grid(
        apps, options=options, jobs=jobs, on_complete=on_complete, **kwargs
    )


def simulate_fleet(
    spec: FleetSpec | int | None = None,
    options: RunOptions | None = None,
    jobs: int | None = None,
    on_complete=None,
) -> FleetResult:
    """Run a fleet of budgeted tenant cells (see :mod:`repro.fleet`).

    ``spec`` may be a full :class:`FleetSpec`, an int (a
    :func:`default_fleet` of that many cells), or ``None`` (the default
    8-cell fleet).
    """
    if isinstance(spec, int):
        spec = default_fleet(spec)
    return run_fleet(spec, options=options, jobs=jobs, on_complete=on_complete)
