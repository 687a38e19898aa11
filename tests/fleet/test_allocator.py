"""Allocator unit tests: pure functions, deterministic, conservative."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    ALLOCATORS,
    CellSignal,
    CellSpec,
    FleetSpec,
    check_budgets,
    default_fleet,
    greedy_rebalance,
    static_equal,
)


def _spec(n_cells=4, total_nodes=16, min_nodes=2):
    cells = tuple(
        CellSpec(f"cell{i}", "media-service", "constant", seed=100 + i)
        for i in range(n_cells)
    )
    return FleetSpec(
        cells=cells,
        seed=7,
        total_nodes=total_nodes,
        min_nodes_per_cell=min_nodes,
    )


def _signal(pressure, util=0.4, capped=0):
    return CellSignal(
        pressure=pressure,
        violation_rate=0.0,
        utilization=util,
        capped_scale_ups=capped,
    )


def test_static_equal_splits_with_name_order_remainder():
    budgets = static_equal(_spec(n_cells=3, total_nodes=11))
    assert budgets == {"cell0": 4, "cell1": 4, "cell2": 3}
    assert sum(budgets.values()) == 11


def test_static_equal_at_the_spec_floor():
    # FleetSpec itself rejects budgets below min * cells, so the
    # tightest valid split leaves every cell exactly at the floor.
    budgets = static_equal(_spec(n_cells=4, total_nodes=9, min_nodes=2))
    assert budgets == {"cell0": 3, "cell1": 2, "cell2": 2, "cell3": 2}


def test_greedy_moves_nodes_to_capped_high_pressure_cell():
    spec = _spec(n_cells=4, total_nodes=16)
    signals = {
        "cell0": _signal(25.0, util=0.9, capped=7),
        "cell1": _signal(0.1, util=0.3),
        "cell2": _signal(0.0, util=0.3),
        "cell3": _signal(0.2, util=0.3),
    }
    budgets = greedy_rebalance(spec, signals)
    assert sum(budgets.values()) == spec.total_nodes
    assert budgets["cell0"] > 4  # the starved cell gained nodes
    assert all(budgets[c] >= spec.min_nodes_per_cell for c in budgets)


def test_greedy_is_static_when_no_cell_is_capped():
    """High pressure without refused scale-ups is manager lag, not a
    capacity problem -- nodes must not move."""
    spec = _spec(n_cells=4, total_nodes=16)
    signals = {
        "cell0": _signal(50.0, util=0.5, capped=0),
        "cell1": _signal(0.1),
        "cell2": _signal(0.0),
        "cell3": _signal(0.2),
    }
    assert greedy_rebalance(spec, signals) == static_equal(spec)


def test_greedy_never_steals_from_busy_or_capped_donors():
    spec = _spec(n_cells=4, total_nodes=16)
    signals = {
        "cell0": _signal(25.0, util=0.9, capped=3),
        "cell1": _signal(0.1, util=0.7),  # 0.7 * 4/3 > 0.8: too busy
        "cell2": _signal(0.0, util=0.2, capped=1),  # capped: never donates
        "cell3": _signal(0.0, util=0.2),
    }
    budgets = greedy_rebalance(spec, signals)
    assert budgets["cell1"] == 4
    assert budgets["cell2"] == 4
    assert budgets["cell3"] < 4


def test_greedy_is_pure():
    spec = _spec(n_cells=4, total_nodes=16)
    signals = {
        "cell0": _signal(25.0, util=0.9, capped=7),
        "cell1": _signal(0.1, util=0.3),
        "cell2": _signal(0.0, util=0.3),
        "cell3": _signal(0.2, util=0.3),
    }
    first = greedy_rebalance(spec, signals)
    assert all(
        greedy_rebalance(spec, signals) == first for _ in range(3)
    )


def test_allocator_registry_names():
    assert set(ALLOCATORS) == {"static", "greedy"}


def test_greedy_requires_signals_for_every_cell():
    spec = _spec(n_cells=3, total_nodes=9)
    with pytest.raises(ConfigurationError):
        greedy_rebalance(spec, {"cell0": _signal(1.0)})


def test_default_fleet_seed_derivation_is_name_keyed():
    """Growing the fleet never reseeds existing cells."""
    small = {c.name: c.seed for c in default_fleet(4).cells}
    large = {c.name: c.seed for c in default_fleet(8).cells}
    for name, seed in small.items():
        assert large[name] == seed


def test_fleet_spec_validation():
    cells = (
        CellSpec("a", "media-service", "constant", 1),
        CellSpec("a", "video-pipeline", "constant", 2),
    )
    with pytest.raises(ConfigurationError):
        FleetSpec(cells=cells, total_nodes=8)
    with pytest.raises(ConfigurationError):
        FleetSpec(
            cells=(cells[0],), total_nodes=1, min_nodes_per_cell=2
        )


def _off_by_one(spec, signals):
    """A deliberately wrong allocator: one node more than the fleet has."""
    budgets = static_equal(spec)
    budgets["cell0"] += 1
    return budgets


def test_check_budgets_accepts_every_registered_allocator():
    spec = _spec(n_cells=4, total_nodes=16)
    signals = {
        "cell0": _signal(25.0, util=0.9, capped=7),
        "cell1": _signal(0.1, util=0.3),
        "cell2": _signal(0.0, util=0.3),
        "cell3": _signal(0.2, util=0.3),
    }
    for name, allocate in sorted(ALLOCATORS.items()):
        budgets = allocate(spec, signals)
        assert check_budgets(spec, name, budgets) == budgets


def test_check_budgets_rejects_a_wrong_total():
    spec = _spec(n_cells=4, total_nodes=16)
    with pytest.raises(ConfigurationError, match="'off-by-one'.*sum to 17"):
        check_budgets(spec, "off-by-one", _off_by_one(spec, {}))


def test_check_budgets_rejects_missing_and_unknown_cells():
    spec = _spec(n_cells=3, total_nodes=9)
    missing = {"cell0": 5, "cell1": 4}
    with pytest.raises(ConfigurationError, match=r"'broken'.*missing \['cell2'\]"):
        check_budgets(spec, "broken", missing)
    unknown = {"cell0": 3, "cell1": 2, "cell2": 2, "ghost": 2}
    with pytest.raises(ConfigurationError, match=r"unknown \['ghost'\]"):
        check_budgets(spec, "broken", unknown)


def test_check_budgets_rejects_a_cell_below_the_floor():
    spec = _spec(n_cells=3, total_nodes=9, min_nodes=2)
    with pytest.raises(ConfigurationError, match="'broken'.*floor"):
        check_budgets(spec, "broken", {"cell0": 6, "cell1": 2, "cell2": 1})
