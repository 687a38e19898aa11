"""Fleet execution: lower cells onto RunPlans, allocate, aggregate.

A fleet run is two epochs, each one :func:`repro.experiments.parallel
.run_many` fan-out over the prewarmed fork pool:

1. **Probe** -- every cell runs a shortened deployment at the
   static-equal node split with the SLO monitor attached.  The per-cell
   error-budget reports collapse (via :func:`repro.telemetry.slo
   .budget_pressure`) into the allocator's input signals.
2. **Main** -- every registered allocator's budget assignment runs at
   full fleet durations, so the pinned dashboard compares the greedy
   headroom-stealer against static-equal on the *same* workloads at the
   *same* total node count.  A cell run is a pure function of its cell
   and node count, so each distinct ``(cell, nodes)`` pair runs once and
   every allocator that budgets the cell that way shares the result.

Everything between the epochs is pure arithmetic on plain data, so a
fleet run is as deterministic as its cells: same spec + options =>
byte-identical merged dashboards and digests for any ``jobs`` value and
any cell-submission order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import TelemetryError
from repro.experiments import artifacts

# Fleet cells reuse the Fig. 11/12 workload shapes verbatim so a cell is
# comparable to the corresponding single-tenant grid cell.
from repro.experiments.fig11_12_performance import _mix_for, _pattern_for
from repro.experiments.managers import attach_ursa
from repro.experiments.parallel import RunPlan, run_many
from repro.experiments.report import (
    build_dashboard,
    render_dashboard_html,
    render_dashboard_text,
)
from repro.experiments.runner import (
    ClusterOptions,
    DeploymentResult,
    RunOptions,
    SLOOptions,
    run_deployment,
)
from repro.experiments.store import RunMeta, merged_digest
from repro.fleet.allocator import (
    ALLOCATORS,
    CellSignal,
    check_budgets,
    static_equal,
)
from repro.fleet.spec import CellSpec, FleetSpec, default_fleet
from repro.telemetry.slo import alerts_digest, budget_pressure

__all__ = [
    "FleetOutcome",
    "FleetPlan",
    "FleetResult",
    "experiment_meta",
    "fleet_report",
    "plan_fleet",
    "run_fleet",
]


def _run_fleet_cell(
    app_name: str, load_kind: str, options: RunOptions
) -> DeploymentResult:
    """One budgeted tenant-cell deployment under Ursa (module-level so
    RunPlans carrying it pickle into pool workers).

    ``options`` arrives fully prepared by :class:`FleetPlan` -- cell
    seed, durations, and the :class:`ClusterOptions` carving this cell's
    node budget out of the fleet (``cap_on_full=True``, so a tight
    budget shows up as queueing and SLA violations, not a crash).
    """
    spec = artifacts.app_spec(app_name)
    rps = artifacts.app_rps(app_name)
    duration = options.resolved_duration_s()
    mix = _mix_for(app_name, load_kind)
    pattern = _pattern_for(load_kind, rps, duration)
    exploration = artifacts.exploration_result(app_name)
    return run_deployment(
        spec,
        mix,
        pattern,
        attach_ursa(exploration, mix.class_loads(rps)),
        manager_name="ursa",
        load_name=load_kind,
        options=options,
    )


@dataclass(frozen=True)
class FleetPlan:
    """Lowering of a :class:`FleetSpec` onto :class:`RunPlan` lists.

    Pure data-to-data: given budgets, produce the exact plans
    ``run_many`` will execute.  Tests introspect this instead of running
    simulations.
    """

    spec: FleetSpec
    #: Main-epoch per-run options (seed/cluster filled per cell).
    options: RunOptions
    #: Probe-epoch options (shortened durations, SLO monitor forced on).
    probe_options: RunOptions

    def cell_options(
        self, base: RunOptions, cell: CellSpec, nodes: int
    ) -> RunOptions:
        return base.replace(
            seed=cell.seed,
            cluster=ClusterOptions(
                nodes=nodes,
                node_cpus=self.spec.node_cpus,
                node_memory_gb=self.spec.node_memory_gb,
                cap_on_full=True,
            ),
        )

    def probe_plans(self, budgets: dict[str, int]) -> list[RunPlan]:
        return [
            RunPlan(
                _run_fleet_cell,
                {
                    "app_name": cell.app_name,
                    "load_kind": cell.load_kind,
                    "options": self.cell_options(
                        self.probe_options, cell, budgets[cell.name]
                    ),
                },
                label=f"fleet:probe:{cell.name}",
            )
            for cell in self.spec.sorted_cells()
        ]

    def main_plans(
        self, budgets_by_allocator: dict[str, dict[str, int]]
    ) -> dict[tuple[str, int], RunPlan]:
        """One plan per distinct ``(cell, nodes)`` across all allocators.

        Keys appear in ``(allocator, cell)`` order of first appearance.
        A cell's plan kwargs depend only on the cell and its node count,
        so allocators that agree on a cell's budget share one run; the
        label names every allocator it serves
        (``fleet:greedy+static:<cell>``).
        """
        served: dict[tuple[str, int], list[str]] = {}
        for allocator, budgets in sorted(budgets_by_allocator.items()):
            for cell in self.spec.sorted_cells():
                key = (cell.name, budgets[cell.name])
                served.setdefault(key, []).append(allocator)
        cells = {cell.name: cell for cell in self.spec.cells}
        return {
            (name, nodes): RunPlan(
                _run_fleet_cell,
                {
                    "app_name": cells[name].app_name,
                    "load_kind": cells[name].load_kind,
                    "options": self.cell_options(
                        self.options, cells[name], nodes
                    ),
                },
                label=f"fleet:{'+'.join(allocators)}:{name}",
            )
            for (name, nodes), allocators in served.items()
        }


def plan_fleet(spec: FleetSpec, options: RunOptions) -> FleetPlan:
    """Derive probe options from the main options (pure arithmetic).

    The probe epoch runs each cell for ~5/12 of the main duration
    (enough for Ursa to settle and the slow burn window to fill) and
    always carries an SLO monitor -- the allocator is blind without it.
    """
    if options.slo is None:
        options = options.replace(slo=SLOOptions())
    duration = options.resolved_duration_s()
    probe_duration = round(duration * 5.0 / 12.0, 1)
    probe_options = options.replace(
        duration_s=probe_duration,
        measure_from_s=round(probe_duration * 0.4, 1),
    )
    return FleetPlan(spec=spec, options=options, probe_options=probe_options)


@dataclass
class FleetOutcome:
    """One allocator's main-epoch results across all cells."""

    allocator: str
    budgets: dict[str, int]
    #: Cell name -> that cell's main-epoch run; the same object as in
    #: any other outcome that gave the cell the same node budget.
    results: dict[str, DeploymentResult] = field(repr=False)

    def completed_requests(self) -> int:
        return sum(r.completed_requests for r in self.results.values())

    def fleet_violation_rate(self) -> float:
        """Fleet-wide SLA violation rate, request-weighted across cells."""
        completed = self.completed_requests()
        if completed == 0:
            return 0.0
        bad = sum(
            r.windowed_violation_rate * r.completed_requests
            for r in self.results.values()
        )
        return round(bad / completed, 9)

    def mean_cpus(self) -> float:
        return round(
            sum(r.mean_cpu_allocation for r in self.results.values()), 9
        )


@dataclass
class FleetResult:
    """Everything a fleet run produced (plain data, picklable)."""

    spec: FleetSpec
    plan: FleetPlan
    #: Cell name -> probe-epoch run (static-equal budgets).
    probe: dict[str, DeploymentResult] = field(repr=False)
    #: Cell name -> allocator input signals measured from the probe.
    signals: dict[str, CellSignal] = field(default_factory=dict)
    #: Allocator name -> main-epoch outcome.
    outcomes: dict[str, FleetOutcome] = field(default_factory=dict)

    def digests(self) -> dict[str, str]:
        """Label -> run digest for every digested run of the fleet."""
        out = {}
        for name, result in sorted(self.probe.items()):
            if result.run_digest is not None:
                out[f"probe/{name}"] = result.run_digest
        for allocator, outcome in sorted(self.outcomes.items()):
            for name, result in sorted(outcome.results.items()):
                if result.run_digest is not None:
                    out[f"{allocator}/{name}"] = result.run_digest
        return out

    def fleet_digest(self) -> str:
        """One checksum over the whole fleet (order-independent)."""
        return merged_digest(self.digests())


def _prewarm(spec: FleetSpec) -> None:
    for app_name in sorted({cell.app_name for cell in spec.cells}):
        artifacts.app_spec(app_name)
        artifacts.exploration_result(app_name)


def _probe_signals(
    spec: FleetSpec,
    budgets: dict[str, int],
    probe: dict[str, DeploymentResult],
) -> dict[str, CellSignal]:
    signals = {}
    for cell in spec.sorted_cells():
        result = probe[cell.name]
        if result.slo is None:
            raise TelemetryError(
                f"probe run of cell {cell.name!r} has no SLO report; "
                "the allocators need its error-budget pressure"
            )
        pressure = budget_pressure(result.slo.budget_report)
        budget_cpus = budgets[cell.name] * spec.node_cpus
        signals[cell.name] = CellSignal(
            pressure=pressure,
            violation_rate=round(result.windowed_violation_rate, 9),
            utilization=round(result.mean_cpu_allocation / budget_cpus, 9),
            capped_scale_ups=result.capped_scale_ups,
        )
    return signals


def run_fleet(
    spec: FleetSpec | None = None,
    options: RunOptions | None = None,
    jobs: int | None = None,
    on_complete=None,
) -> FleetResult:
    """Probe, allocate, and run a fleet; see the module docstring.

    ``options`` defaults to digested runs at the ``fleet`` scale profile
    (shorter per-cell durations than ``quick``; artefact caches are
    shared with quick runs).  Every allocator's budgets are checked
    (:func:`~repro.fleet.allocator.check_budgets`) before the main epoch
    starts.  ``on_complete`` fires per executed cell run, across both
    epochs, for progress reporting: N probe runs plus one main run per
    distinct ``(cell, nodes)`` pair.
    """
    spec = spec if spec is not None else default_fleet()
    options = (
        options
        if options is not None
        else RunOptions(digest=True, scale="fleet", slo=SLOOptions())
    )
    plan = plan_fleet(spec, options)
    names = [cell.name for cell in spec.sorted_cells()]
    static = static_equal(spec)
    probe = dict(
        zip(
            names,
            run_many(
                plan.probe_plans(static),
                jobs=jobs,
                on_complete=on_complete,
                prewarm=lambda: _prewarm(spec),
            ),
        )
    )
    signals = _probe_signals(spec, static, probe)
    budgets_by_allocator = {
        name: check_budgets(spec, name, allocate(spec, signals))
        for name, allocate in sorted(ALLOCATORS.items())
    }
    main_plans = plan.main_plans(budgets_by_allocator)
    main = dict(
        zip(
            main_plans,
            run_many(
                list(main_plans.values()),
                jobs=jobs,
                on_complete=on_complete,
                prewarm=lambda: _prewarm(spec),
            ),
        )
    )
    outcomes = {
        allocator: FleetOutcome(
            allocator=allocator,
            budgets=budgets,
            results={name: main[name, budgets[name]] for name in names},
        )
        for allocator, budgets in sorted(budgets_by_allocator.items())
    }
    return FleetResult(
        spec=spec, plan=plan, probe=probe, signals=signals, outcomes=outcomes
    )


def _allocator_table(result: FleetResult):
    headers = ("allocator", "nodes", "violation_rate", "mean_cpus", "completed")
    rows = [
        (
            allocator,
            str(sum(outcome.budgets.values())),
            f"{outcome.fleet_violation_rate():.4f}",
            f"{outcome.mean_cpus():.1f}",
            str(outcome.completed_requests()),
        )
        for allocator, outcome in sorted(result.outcomes.items())
    ]
    return ("fleet allocators (equal total nodes)", headers, rows)


def _cell_table(result: FleetResult):
    headers = (
        "cell",
        "app",
        "load",
        "probe_pressure",
        "probe_util",
        "probe_capped",
        *(f"{name}_nodes" for name in sorted(result.outcomes)),
        *(f"{name}_viol" for name in sorted(result.outcomes)),
    )
    rows = []
    for cell in result.spec.sorted_cells():
        signal = result.signals[cell.name]
        outcomes = [result.outcomes[a] for a in sorted(result.outcomes)]
        rows.append(
            (
                cell.name,
                cell.app_name,
                cell.load_kind,
                f"{signal.pressure:.3f}",
                f"{signal.utilization:.3f}",
                str(signal.capped_scale_ups),
                *(str(o.budgets[cell.name]) for o in outcomes),
                *(
                    f"{o.results[cell.name].windowed_violation_rate:.4f}"
                    for o in outcomes
                ),
            )
        )
    return ("cell budgets and burn", headers, rows)


def _worst_burn_table(result: FleetResult, top: int = 3):
    headers = ("cell", "probe_pressure", "probe_violation_rate")
    ranked = sorted(
        result.signals.items(), key=lambda kv: (-kv[1].pressure, kv[0])
    )
    rows = [
        (name, f"{signal.pressure:.3f}", f"{signal.violation_rate:.4f}")
        for name, signal in ranked[:top]
    ]
    return ("worst-burn cells (probe epoch)", headers, rows)


def experiment_meta(result: FleetResult) -> RunMeta:
    """Provenance sidecar for a fleet run (``results/fleet/``)."""
    summaries = {}
    for allocator, outcome in sorted(result.outcomes.items()):
        for name, run in sorted(outcome.results.items()):
            summaries[f"{allocator}/{name}"] = {
                "violation_rate": round(run.windowed_violation_rate, 9),
                "mean_cpus": round(run.mean_cpu_allocation, 9),
                "completed_requests": float(run.completed_requests),
                "nodes": float(outcome.budgets[name]),
            }
    alerts = {}
    for allocator, outcome in sorted(result.outcomes.items()):
        for name, run in sorted(outcome.results.items()):
            if run.slo is not None:
                alerts[f"{allocator}/{name}"] = alerts_digest(
                    run.slo.alerts_jsonl
                )
    return RunMeta(
        experiment="fleet",
        scale="fleet",
        seeds={cell.name: cell.seed for cell in result.spec.sorted_cells()},
        digests=result.digests(),
        summaries=summaries,
        alerts=alerts,
        extra={
            "cells": len(result.spec.cells),
            "total_nodes": result.spec.total_nodes,
            "node_cpus": result.spec.node_cpus,
            "fleet_digest": result.fleet_digest(),
            "budgets": {
                allocator: dict(sorted(outcome.budgets.items()))
                for allocator, outcome in sorted(result.outcomes.items())
            },
            "fleet_violation_rate": {
                allocator: outcome.fleet_violation_rate()
                for allocator, outcome in sorted(result.outcomes.items())
            },
            "probe_pressure": {
                name: signal.pressure
                for name, signal in sorted(result.signals.items())
            },
        },
    )


def fleet_report(result: FleetResult) -> tuple[str, str, RunMeta]:
    """Fleet dashboard text, standalone HTML, and provenance.

    The dashboard merges every main-epoch run (both allocators) through
    the PR-9 report pipeline -- class histograms via
    ``FixedHistogram.merge``, alert timeline, burn/utilization tables --
    and prepends the fleet-level sections (allocator comparison, cell
    budgets, worst-burn cells) as ``extra_tables``.
    """
    sla_targets: dict[str, float] = {}
    for app_name in sorted({cell.app_name for cell in result.spec.cells}):
        for rc in artifacts.app_spec(app_name).request_classes:
            sla_targets[rc.name] = rc.sla.target_s
    runs = {
        f"{allocator}/{name}": run
        for allocator, outcome in sorted(result.outcomes.items())
        for name, run in sorted(outcome.results.items())
    }
    dash = build_dashboard(
        runs,
        sla_targets=sla_targets,
        title=(
            f"fleet dashboard ({len(result.spec.cells)} cells, "
            f"{result.spec.total_nodes} nodes)"
        ),
        extra_tables=[
            _allocator_table(result),
            _cell_table(result),
            _worst_burn_table(result),
        ],
    )
    return (
        render_dashboard_text(dash),
        render_dashboard_html(dash),
        experiment_meta(result),
    )
