"""Figs. 11 & 12 -- SLA violation rates and CPU allocation (§VII-E).

For each application and each load kind (constant, dynamic, skewed), run
all five systems -- Ursa, Sinan, Firm, Auto-a, Auto-b -- on identical
workloads and report the windowed SLA violation rate (Fig. 11) and the
mean CPU allocation (Fig. 12).

Expected shapes from the paper:

* Ursa: 0.1-8.5 % violations under constant/dynamic load, 0.5-2 % under
  skewed load; lowest or near-lowest CPU among SLA-preserving systems.
* Sinan/Firm: 9.1-29.2 % violations (worse under skewed: 14.2-51.9 %).
* Auto-a: cheapest CPUs but >40 % violations.
* Auto-b: violations close to Ursa but 43.9-148 % more CPUs
  (constant/dynamic).
* Under skewed load Ursa may spend some extra CPU (its conservative
  recalculation) while keeping violations low.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.experiments import artifacts
from repro.experiments.managers import (
    attach_autoscaler,
    attach_firm,
    attach_sinan,
    attach_ursa,
)
from repro.experiments.parallel import RunPlan, partition_seeds, run_many
from repro.experiments.runner import (
    DeploymentResult,
    RunOptions,
    run_deployment,
    scale_profile,
)
from repro.workload.defaults import default_mix_for, skewed_mixes
from repro.workload.mixes import RequestMix
from repro.workload.patterns import ConstantLoad, DiurnalLoad

if TYPE_CHECKING:
    from repro.experiments.store import RunMeta

__all__ = [
    "PerformanceGrid",
    "run_performance_grid",
    "LOAD_KINDS",
    "experiment_meta",
    "grid_audit",
    "report_artifacts",
]

LOAD_KINDS = ("constant", "dynamic", "skewed")


def _pattern_for(load_kind: str, rps: float, duration_s: float):
    if load_kind == "constant":
        return ConstantLoad(rps)
    if load_kind == "dynamic":
        # Diurnal ramp peaking at 1.6x base mid-run (the paper's diurnal
        # pattern; dynamic load has no burst component).
        return DiurnalLoad(low=rps * 0.7, high=rps * 1.6, period_s=duration_s)
    if load_kind == "skewed":
        return ConstantLoad(rps)
    raise ValueError(f"unknown load kind {load_kind!r}")


def _mix_for(app_name: str, load_kind: str) -> RequestMix:
    if load_kind == "skewed":
        return skewed_mixes(app_name)[0]
    return default_mix_for(app_name)


@dataclass
class PerformanceGrid:
    """(app, load, manager) -> DeploymentResult."""

    results: dict[tuple[str, str, str], DeploymentResult]
    #: (app, load) -> the workload seed shared by that cell's managers
    #: (recorded so the results sidecar can pin the seed partition).
    cell_seeds: dict[tuple[str, str], int] = field(default_factory=dict)

    def violation_table(self) -> str:
        return self._table("windowed_violation_rate", "Fig.11 SLA violation rate")

    def cpu_table(self) -> str:
        return self._table("mean_cpu_allocation", "Fig.12 mean CPU allocation")

    def _table(self, attr: str, title: str) -> str:
        from repro.experiments.report import render_table

        keys = sorted(self.results)
        apps = sorted({k[0] for k in keys})
        loads = sorted({k[1] for k in keys})
        managers = sorted({k[2] for k in keys})
        rows = []
        for app in apps:
            for load in loads:
                row = [app, load]
                for manager in managers:
                    result = self.results.get((app, load, manager))
                    value = getattr(result, attr) if result else float("nan")
                    row.append(f"{value:.3f}")
                rows.append(row)
        return render_table(["app", "load", *managers], rows, title=title)


#: Historical default seed for Fig. 11/12 cells (predates RunOptions).
FIG11_12_SEED = 23


def run_cell(
    app_name: str,
    load_kind: str,
    manager: str,
    options: RunOptions | None = None,
) -> DeploymentResult:
    """One (app, load, manager) deployment run."""
    options = options if options is not None else RunOptions(seed=FIG11_12_SEED)
    spec = artifacts.app_spec(app_name)
    rps = artifacts.app_rps(app_name)
    duration = options.resolved_duration_s()
    mix = _mix_for(app_name, load_kind)
    pattern = _pattern_for(load_kind, rps, duration)
    exploration_mix = default_mix_for(app_name)
    if manager == "ursa":
        exploration = artifacts.exploration_result(app_name)
        # Ursa computes thresholds once, at experiment start, from the
        # *current* (possibly skewed) class loads -- §VII-E.
        attach = attach_ursa(exploration, mix.class_loads(rps))
    elif manager == "sinan":
        attach = attach_sinan(artifacts.sinan_predictor(app_name))
    elif manager == "firm":
        attach = attach_firm(artifacts.firm_agents(app_name))
    elif manager in ("auto-a", "auto-b"):
        attach = attach_autoscaler(manager, exploration_mix, rps)
    else:
        raise ValueError(f"unknown manager {manager!r}")
    return run_deployment(
        spec,
        mix,
        pattern,
        attach,
        manager_name=manager,
        load_name=load_kind,
        options=options,
    )


def _prewarm_artifacts(apps: tuple[str, ...], managers: tuple[str, ...]) -> None:
    """Build shared cached artefacts in the parent before forking workers.

    Exploration results / trained baselines land in ``.repro_cache`` once
    here, so N workers read the cache instead of racing to rebuild the
    same artefact N times.
    """
    for app_name in apps:
        artifacts.app_spec(app_name)
        if "ursa" in managers:
            artifacts.exploration_result(app_name)
        if "sinan" in managers:
            artifacts.sinan_predictor(app_name)
        if "firm" in managers:
            artifacts.firm_agents(app_name)


def run_performance_grid(
    apps: tuple[str, ...],
    loads: tuple[str, ...] = LOAD_KINDS,
    managers: tuple[str, ...] = ("ursa", "sinan", "firm", "auto-a", "auto-b"),
    options: RunOptions | None = None,
    jobs: int | None = None,
    on_complete=None,
) -> PerformanceGrid:
    """The full (app x load x manager) grid, fanned out across ``jobs``.

    All per-run knobs ride in ``options`` (default: digested runs under
    the historical master seed).  ``options.seed`` is a *master* seed:
    each (app, load) workload cell gets its own seed from
    :func:`partition_seeds`, shared by all managers of that cell so the
    five systems face identical request sequences.  The partition depends
    only on the master seed and the grid shape, so the merged results are
    identical for any ``jobs`` value.  ``options.tracing`` samples span
    trees in every cell (a pure observer; the simulated timeline is
    unchanged) and returns them on each cell's ``result.traces`` -- the
    input to the CLI's ``--dump-traces``; ``options.slo`` streams the SLO
    monitor the same way.
    """
    options = (
        options
        if options is not None
        else RunOptions(seed=FIG11_12_SEED, digest=True)
    )
    workloads = [(a, lo) for a in apps for lo in loads]
    seeds = dict(
        zip(
            workloads,
            partition_seeds(options.seed, len(workloads), namespace="fig11-12"),
        )
    )
    keys = [(a, lo, m) for (a, lo) in workloads for m in managers]
    plans = [
        RunPlan(
            run_cell,
            {
                "app_name": a,
                "load_kind": lo,
                "manager": m,
                "options": options.replace(seed=seeds[(a, lo)]),
            },
            label=f"fig11-12:{a}:{lo}:{m}",
        )
        for (a, lo, m) in keys
    ]
    # prewarm= runs in the parent before any worker forks, so exploration
    # results / trained baselines are built once and inherited (or read
    # back through the on-disk cache when the pool is already warm).
    results = dict(
        zip(
            keys,
            run_many(
                plans,
                jobs=jobs,
                on_complete=on_complete,
                prewarm=lambda: _prewarm_artifacts(apps, managers),
            ),
        )
    )
    return PerformanceGrid(results=results, cell_seeds=seeds)


def grid_audit(grid: PerformanceGrid) -> list:
    """Budget-audit verdicts for every traced Ursa cell of a grid.

    Recomputes the MIP's per-(class, service) budgets in the parent from
    the cached exploration artefacts (deterministic and cheap -- the same
    ``optimize`` call :func:`run_cell` made inside the worker) and
    compares them against the observed critical-path attribution of that
    cell's sampled spans.  Verdict classes are prefixed ``app/load/`` so
    one grid yields one flat, uniquely-keyed list.
    """
    from repro.core.optimizer import OptimizationEngine
    from repro.telemetry.audit import audit_budgets
    from repro.telemetry.tracing import CriticalPathSummary, traces_from_jsonl

    verdicts = []
    for (app_name, load_kind, manager), result in sorted(grid.results.items()):
        if manager != "ursa" or result.traces is None:
            continue
        rps = artifacts.app_rps(app_name)
        outcome = OptimizationEngine().optimize(
            artifacts.app_spec(app_name),
            artifacts.exploration_result(app_name),
            _mix_for(app_name, load_kind).class_loads(rps),
        )
        summary = CriticalPathSummary()
        for trace in traces_from_jsonl(result.traces.jsonl):
            summary.add(trace)
        for verdict in audit_budgets(summary, outcome.service_budgets):
            verdicts.append(
                dataclasses.replace(
                    verdict,
                    request_class=(
                        f"{app_name}/{load_kind}/{verdict.request_class}"
                    ),
                )
            )
    return verdicts


def report_artifacts(grid: PerformanceGrid) -> tuple[str, str, RunMeta]:
    """Dashboard text, standalone HTML, and provenance for a grid.

    Expects a grid run with ``tracing=`` and ``slo=`` enabled (the CLI's
    ``--report`` path); cells without those artefacts simply contribute
    fewer sections.  The rendered text and HTML are pure functions of the
    grid, so the store pins both (the HTML travels as a sidecar-recorded
    artifact file).
    """
    from repro.experiments.report import (
        build_dashboard,
        render_dashboard_html,
        render_dashboard_text,
    )
    from repro.experiments.store import RunMeta
    from repro.telemetry.audit import verdicts_payload
    from repro.telemetry.slo import alerts_digest

    apps = sorted({app for app, _lo, _m in grid.results})
    sla_targets: dict[str, float] = {}
    for app_name in apps:
        for rc in artifacts.app_spec(app_name).request_classes:
            sla_targets[rc.name] = rc.sla.target_s
    results = {
        f"{app}/{load}/{manager}": result
        for (app, load, manager), result in grid.results.items()
    }
    audit = grid_audit(grid)
    dash = build_dashboard(
        results,
        sla_targets=sla_targets,
        audit=audit,
        title="fig11-12 run dashboard",
    )
    text = render_dashboard_text(dash)
    html = render_dashboard_html(dash)
    base = experiment_meta(grid)
    meta = RunMeta(
        experiment="fig11-12-report",
        scale=base.scale,
        seeds=dict(base.seeds),
        digests=dict(base.digests),
        summaries=dict(base.summaries),
        alerts={
            label: alerts_digest(result.slo.alerts_jsonl)
            for label, result in sorted(results.items())
            if result.slo is not None
        },
        audits=verdicts_payload(audit),
    )
    return text, html, meta


def experiment_meta(grid: PerformanceGrid) -> RunMeta:
    """Provenance sidecar for the Fig. 11/12 grid (one run per cell)."""
    from repro.experiments.store import RunMeta

    summaries = {}
    digests = {}
    for (app, load, manager), result in sorted(grid.results.items()):
        label = f"{app}/{load}/{manager}"
        summaries[label] = {
            "violation_rate": round(result.windowed_violation_rate, 9),
            "mean_cpus": round(result.mean_cpu_allocation, 9),
            "completed_requests": float(result.completed_requests),
        }
        if result.run_digest is not None:
            digests[label] = result.run_digest
    return RunMeta(
        experiment="fig11-12",
        scale=scale_profile().name,
        seeds={
            f"{app}/{load}": s for (app, load), s in grid.cell_seeds.items()
        },
        digests=digests,
        summaries=summaries,
    )
