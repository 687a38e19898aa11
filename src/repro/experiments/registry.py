"""The paper's experiments, declared once, in paper order.

One :class:`Experiment` record per ``python -m repro`` name holds its
results-store stem, its ``summary`` heading, the optional CLI flags it
accepts, and a runner returning one :class:`Outcome`.  The CLI (choices,
flag checks, ``--save``), :func:`repro.experiments.summary.summarize`
and ``benchmarks/`` all read these records.

Runners import their experiment module when called, so listing the
registry (``--help``, ``summary``) imports none of them.  Nothing on the
``import repro.api`` path imports this module.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.experiments.store import RunMeta

__all__ = ["EXPERIMENTS", "Experiment", "Outcome", "Request", "get", "save"]


@dataclass(frozen=True)
class Request:
    """The CLI flags a runner reads; the defaults are the pinned run."""

    jobs: int | None = None
    on_complete: Callable[..., None] | None = None
    apps: tuple[str, ...] | None = None
    trace: bool = False
    report: bool = False
    cells: int | None = None
    smoke: bool = False


@dataclass(frozen=True)
class Outcome:
    """What one run produced.

    ``name`` is the results-store stem it saves as (the experiment's own
    name when it has nothing to save); ``result`` is the
    experiment's own result object (benchmarks assert its shape);
    ``traces`` maps each traced run to its span-tree JSONL; ``report`` is
    a by-product saved next to it; ``html`` is saved as ``<name>.html``.
    """

    name: str
    text: str
    meta: RunMeta | None
    result: Any = None
    traces: Mapping[str, str] = field(default_factory=dict)
    report: Outcome | None = None
    html: str | None = None


@dataclass(frozen=True)
class Experiment:
    """One CLI experiment.

    ``stem`` is ``None`` when there is nothing to save; ``title`` is
    ``None`` to keep the experiment out of ``summary``.  ``runner`` gets
    the stem and the request.
    """

    name: str
    stem: str | None
    title: str | None
    runner: Callable[[str | None, Request], Outcome]
    flags: frozenset[str] = frozenset()

    def accepts(self, flag: str) -> bool:
        return flag in self.flags or (flag == "--save" and self.stem is not None)

    def run(self, request: Request = Request()) -> Outcome:
        return self.runner(self.stem, request)


def save(outcome: Outcome) -> Path:
    """Persist ``outcome`` through the results store; returns the sidecar."""
    from repro.experiments import store

    if outcome.meta is None:
        raise ValueError(f"{outcome.name}: no provenance to save")
    return store.save_result(
        outcome.name,
        outcome.text,
        outcome.meta,
        artifacts=None if outcome.html is None else {f"{outcome.name}.html": outcome.html},
    )


def _fig02(stem, request):
    from repro.experiments.fig02_backpressure import (
        experiment_meta,
        render_report,
        run_all_chains,
    )

    heatmaps = run_all_chains()
    return Outcome(stem, render_report(heatmaps), experiment_meta(heatmaps), heatmaps)


def _grid(module, entry, stem, request):
    """``entry(jobs=, on_complete=)`` from ``module``; its result renders itself."""
    mod = importlib.import_module(f"repro.experiments.{module}")
    result = getattr(mod, entry)(jobs=request.jobs, on_complete=request.on_complete)
    return Outcome(stem, result.render(), mod.experiment_meta(result), result)


def _accuracy(app_name, stem, request):
    from repro.experiments.fig09_10_model_accuracy import (
        FIG9_10_SEED,
        FIG9_CLASSES,
        experiment_meta,
        run_model_accuracy,
    )
    from repro.experiments.runner import RunOptions, TracingOptions

    classes = (
        FIG9_CLASSES if app_name == "social-network" else ("high-priority", "low-priority")
    )
    result = run_model_accuracy(
        app_name,
        classes,
        options=RunOptions(
            seed=FIG9_10_SEED,
            digest=True,
            tracing=TracingOptions() if request.trace else None,
        ),
    )
    return Outcome(
        stem,
        result.render(),
        experiment_meta(result, stem),
        result,
        traces={app_name: result.traces.jsonl} if result.traces is not None else {},
    )


def _fig11_12(stem, request):
    from repro.experiments.fig11_12_performance import (
        FIG11_12_SEED,
        experiment_meta,
        report_artifacts,
        run_performance_grid,
    )
    from repro.experiments.runner import RunOptions, SLOOptions, TracingOptions

    grid = run_performance_grid(
        request.apps
        or ("social-network", "vanilla-social-network", "media-service", "video-pipeline"),
        options=RunOptions(
            seed=FIG11_12_SEED,
            digest=True,
            tracing=TracingOptions() if (request.trace or request.report) else None,
            slo=SLOOptions() if request.report else None,
        ),
        jobs=request.jobs,
        on_complete=request.on_complete,
    )
    report = None
    if request.report:
        report_text, report_html, report_meta = report_artifacts(grid)
        report = Outcome("fig11_12_report", report_text, report_meta, html=report_html)
    return Outcome(
        stem,
        grid.violation_table() + "\n\n" + grid.cpu_table(),
        experiment_meta(grid),
        grid,
        traces={
            f"{app}.{load}.{manager}": result.traces.jsonl
            for (app, load, manager), result in sorted(grid.results.items())
            if result is not None and result.traces is not None
        },
        report=report,
    )


def _table06(stem, request):
    from repro.experiments.table06_control_plane import experiment_meta, run_table06

    table = run_table06()
    return Outcome(stem, table.render(), experiment_meta(table), table)


def _ablation(entry, meta, stem, request):
    """``entry`` returns ``(table, *parts)``; ``meta(*parts)`` is its provenance."""
    from repro.experiments import ablations

    table, *parts = getattr(ablations, entry)(jobs=request.jobs)
    return Outcome(stem, table, getattr(ablations, meta)(*parts), tuple(parts))


def _fleet(stem, request):
    from repro.api import RunOptions, SLOOptions, simulate_fleet
    from repro.fleet import default_fleet, fleet_report

    options = RunOptions(digest=True, scale="fleet", slo=SLOOptions())
    if request.smoke:
        # CI-sized fleet: shorter cells (the probe epoch derives its own
        # durations from these), same determinism guarantees.
        options = options.replace(duration_s=160.0, measure_from_s=40.0)
    result = simulate_fleet(
        default_fleet(request.cells or (4 if request.smoke else 8)),
        options=options,
        jobs=request.jobs,
        on_complete=request.on_complete,
    )
    text, html, meta = fleet_report(result)
    # Both names route to results/fleet/ via the sidecar's scale field.
    return Outcome(f"{stem}_smoke" if request.smoke else stem, text, meta, result, html=html)


def _summary(stem, request):
    from repro.experiments.summary import summarize

    return Outcome("summary", summarize(), None)


_GRID = frozenset({"--jobs", "--progress"})
_JOBS = frozenset({"--jobs"})
_TRACES = frozenset({"--dump-traces"})

#: Every experiment, in paper order (``summary`` prints them in this order).
EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment("fig02", "fig02_backpressure", "Fig. 2 — backpressure propagation", _fig02),
    Experiment(
        "fig04",
        "fig04_thresholds",
        "Fig. 4 — backpressure-free thresholds",
        partial(_grid, "fig04_thresholds", "run_threshold_profiling"),
        _GRID,
    ),
    Experiment(
        "table05",
        "table05_exploration",
        "Table V — exploration overhead",
        partial(_grid, "table05_exploration", "run_table05"),
        _GRID,
    ),
    Experiment(
        "fig09",
        "fig09_model_accuracy",
        "Fig. 9 — model accuracy (social network)",
        partial(_accuracy, "social-network"),
        _TRACES,
    ),
    Experiment(
        "fig10",
        "fig10_model_accuracy",
        "Fig. 10 — model accuracy (video pipeline)",
        partial(_accuracy, "video-pipeline"),
        _TRACES,
    ),
    Experiment(
        "fig11-12",
        "fig11_12_performance",
        "Figs. 11/12 — violations & CPU",
        _fig11_12,
        _GRID | _TRACES | {"--apps", "--report"},
    ),
    Experiment(
        "fig13",
        "fig13_diurnal",
        "Fig. 13 — diurnal trace",
        partial(_grid, "fig13_diurnal", "run_diurnal_trace"),
        _GRID,
    ),
    Experiment("table06", "table06_control_plane", "Table VI — control-plane latency", _table06),
    Experiment(
        "fig14",
        "fig14_service_change",
        "Fig. 14 — service change",
        partial(_grid, "fig14_service_change", "run_service_change"),
        _GRID,
    ),
    Experiment(
        "ablation-grid",
        "ablation_grid",
        "Ablation — percentile grid",
        partial(_ablation, "run_grid_ablation", "grid_meta"),
        _JOBS,
    ),
    Experiment(
        "ablation-backpressure",
        "ablation_backpressure",
        "Ablation — backpressure stop",
        partial(_ablation, "run_backpressure_ablation", "backpressure_meta"),
        _JOBS,
    ),
    Experiment(
        "ablation-ttest",
        "ablation_ttest",
        "Ablation — t-test scaling",
        partial(_ablation, "run_ttest_ablation", "ttest_meta"),
        _JOBS,
    ),
    Experiment("fleet", "fleet", None, _fleet, _GRID | {"--cells", "--smoke"}),
    Experiment("summary", None, None, _summary),
)


def get(name: str) -> Experiment:
    for experiment in EXPERIMENTS:
        if experiment.name == name:
            return experiment
    raise KeyError(f"unknown experiment {name!r}")
