"""Fleet-scale sharded simulation: many tenant cells, one node budget.

See :mod:`repro.fleet.spec` for the data model, :mod:`repro.fleet
.allocator` for the budget-splitting policies, and :mod:`repro.fleet
.runner` for execution.  The supported entry point is
:func:`repro.api.simulate_fleet`.
"""

from repro.fleet.allocator import (
    ALLOCATORS,
    CellSignal,
    check_budgets,
    greedy_rebalance,
    static_equal,
)
from repro.fleet.runner import (
    FleetOutcome,
    FleetPlan,
    FleetResult,
    experiment_meta,
    fleet_report,
    plan_fleet,
    run_fleet,
)
from repro.fleet.spec import (
    FLEET_APPS,
    FLEET_LOADS,
    FLEET_SEED,
    CellSpec,
    FleetSpec,
    default_fleet,
)

__all__ = [
    "ALLOCATORS",
    "CellSignal",
    "CellSpec",
    "FLEET_APPS",
    "FLEET_LOADS",
    "FLEET_SEED",
    "FleetOutcome",
    "FleetPlan",
    "FleetResult",
    "FleetSpec",
    "check_budgets",
    "default_fleet",
    "experiment_meta",
    "fleet_report",
    "greedy_rebalance",
    "plan_fleet",
    "run_fleet",
    "static_equal",
]
