"""Fleet-level node allocators: split a global budget across cells.

Allocators are *pure functions* from ``(FleetSpec, probe signals)`` to
``{cell name: node budget}`` -- no RNG, no wall clock, no simulation
state -- so the same probe epoch always yields the same budgets and the
main epoch's run digests are reproducible byte for byte.

Two policies, matching the paper's evaluation style (a managed policy
against a static baseline at *equal total cost*):

* ``static`` -- every cell gets ``total_nodes / n_cells`` (remainders to
  the first cells in name order).  This is the no-information baseline.
* ``greedy`` -- headroom stealing.  Starting from the static split, move
  one node at a time from the least SLO-pressured donor cell (above the
  per-cell floor) to the most pressured receiver, until pressures even
  out.  Pressure estimates are rescaled by ``static budget / current
  budget`` after every move, so a receiver's estimated pressure falls as
  it gains nodes and a donor's rises as it sheds them -- the loop
  terminates without ever re-simulating.

The pressure signal itself comes from the PR-9 SLO monitor: the probe
epoch runs every cell at the static split with :class:`~repro.telemetry
.slo.SLOMonitor` attached, and :func:`repro.telemetry.slo
.budget_pressure` collapses each cell's error-budget report to one
scalar (budget consumed, nudged by slow burn).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.fleet.spec import FleetSpec

__all__ = [
    "ALLOCATORS",
    "CellSignal",
    "check_budgets",
    "greedy_rebalance",
    "static_equal",
]

#: Stop stealing once the donor/receiver pressure-estimate gap closes
#: below this; keeps the greedy loop from churning nodes between cells
#: that are already balanced.
_PRESSURE_GAP = 0.25

#: A donor's projected mean utilization after shedding a node must stay
#: under this, leaving slack for load peaks above the probe's mean.
_DONOR_UTIL_CEILING = 0.8


@dataclass(frozen=True)
class CellSignal:
    """Per-cell SLO signals measured during the probe epoch."""

    #: :func:`repro.telemetry.slo.budget_pressure` of the cell's probe
    #: run -- >= 1.0 means the cell burned its whole error budget.
    pressure: float
    #: Probe-epoch SLA violation rate (fraction of completed requests).
    violation_rate: float
    #: Mean allocated CPUs / budgeted CPUs during the probe.
    utilization: float
    #: Scale-ups the capped cluster refused during the probe; > 0 means
    #: the cell was *capacity*-bound (more nodes would actually help),
    #: as opposed to burning budget from manager lag alone.
    capped_scale_ups: int = 0


def static_equal(spec: FleetSpec) -> dict[str, int]:
    """Equal split of ``total_nodes`` (remainders by cell-name order)."""
    names = [cell.name for cell in spec.sorted_cells()]
    base, remainder = divmod(spec.total_nodes, len(names))
    if base < spec.min_nodes_per_cell:
        raise ConfigurationError(
            f"static split gives {base} nodes/cell, below the "
            f"min_nodes_per_cell={spec.min_nodes_per_cell} floor"
        )
    return {
        name: base + (1 if i < remainder else 0) for i, name in enumerate(names)
    }


def greedy_rebalance(
    spec: FleetSpec, signals: Mapping[str, CellSignal]
) -> dict[str, int]:
    """Headroom stealing from the static split, guided by probe signals.

    A cell *receives* nodes only while it is both out of error budget
    (rescaled pressure estimate > 1) **and** was capacity-bound in the
    probe (the capped cluster refused scale-ups) -- extra nodes cannot
    fix violations caused by manager lag alone.  A cell *donates* only
    while the shed node leaves it uncapped, projected inside its error
    budget, and projected under :data:`_DONOR_UTIL_CEILING` mean
    utilization.  Both projections rescale the probe measurement by
    ``static budget / new budget`` -- the cheapest purely-local model of
    how a cell responds to a budget change -- so the loop terminates
    without re-simulating.
    """
    budgets = static_equal(spec)
    missing = sorted(set(budgets) - set(signals))
    if missing:
        raise ConfigurationError(f"no probe signal for cells: {missing}")
    static = dict(budgets)

    def estimate(name: str) -> float:
        return signals[name].pressure * static[name] / budgets[name]

    def can_donate(name: str) -> bool:
        if budgets[name] <= spec.min_nodes_per_cell:
            return False
        if signals[name].capped_scale_ups > 0:
            return False  # already capacity-bound at the static split
        shed_ratio = static[name] / (budgets[name] - 1)
        return (
            signals[name].pressure * shed_ratio < 1.0
            and signals[name].utilization * shed_ratio < _DONOR_UTIL_CEILING
        )

    # Each move strictly raises the donor's estimates and lowers the
    # receiver's, so total_nodes iterations is a safe upper bound.
    for _ in range(spec.total_nodes):
        receivers = [
            name for name in budgets
            if signals[name].capped_scale_ups > 0 and estimate(name) > 1.0
        ]
        if not receivers:
            break
        receiver = max(receivers, key=lambda name: (estimate(name), name))
        donors = [
            name for name in budgets if name != receiver and can_donate(name)
        ]
        if not donors:
            break
        donor = min(donors, key=lambda name: (estimate(name), name))
        if estimate(receiver) - estimate(donor) < _PRESSURE_GAP:
            break
        budgets[donor] -= 1
        budgets[receiver] += 1
    return budgets


def check_budgets(
    spec: FleetSpec, allocator: str, budgets: Mapping[str, int]
) -> dict[str, int]:
    """Return ``budgets`` as a dict if they are a valid split of the fleet.

    Every cell gets a budget and no unknown cell does, each budget meets
    ``min_nodes_per_cell``, and the budgets sum to ``total_nodes``.
    Raises :class:`ConfigurationError` naming ``allocator`` otherwise.
    """
    names = {cell.name for cell in spec.cells}
    missing = sorted(names - set(budgets))
    unknown = sorted(set(budgets) - names)
    if missing or unknown:
        raise ConfigurationError(
            f"allocator {allocator!r} budgets cells {sorted(budgets)}; "
            f"missing {missing}, unknown {unknown}"
        )
    low = {
        name: nodes
        for name, nodes in sorted(budgets.items())
        if nodes < spec.min_nodes_per_cell
    }
    if low:
        raise ConfigurationError(
            f"allocator {allocator!r} budgets {low} are below the "
            f"min_nodes_per_cell={spec.min_nodes_per_cell} floor"
        )
    total = sum(budgets.values())
    if total != spec.total_nodes:
        raise ConfigurationError(
            f"allocator {allocator!r} budgets sum to {total} nodes, "
            f"not the fleet's total_nodes={spec.total_nodes}"
        )
    return dict(budgets)


#: Allocator registry: name -> (spec, signals) -> budgets.  ``static``
#: ignores the signals, which is exactly what makes it the baseline.
ALLOCATORS: dict[
    str, Callable[[FleetSpec, Mapping[str, CellSignal]], dict[str, int]]
] = {
    "static": lambda spec, signals: static_equal(spec),
    "greedy": greedy_rebalance,
}
