"""Fleet determinism: jobs- and order-invariance, purity, run dedupe.

Uses a deliberately tiny, uncontended two-cell fleet (media + video, the
two cheapest apps) so three full fleet runs stay test-suite friendly;
the allocator-behaviour cases live in ``test_allocator.py`` as pure
unit tests.
"""

from types import SimpleNamespace

import pytest

from repro.api import RunOptions, SLOOptions, simulate_fleet
from repro.errors import TelemetryError
from repro.experiments.runner import DRAIN_S, WARMUP_S
from repro.fleet import (
    CellSpec,
    FleetSpec,
    experiment_meta,
    fleet_report,
    plan_fleet,
    static_equal,
)
from repro.fleet.runner import _probe_signals, _run_fleet_cell

CELLS = (
    CellSpec("a-media", "media-service", "constant", seed=101),
    CellSpec("b-video", "video-pipeline", "constant", seed=202),
)

OPTIONS = RunOptions(
    digest=True,
    scale="fleet",
    duration_s=120.0,
    measure_from_s=30.0,
    slo=SLOOptions(),
)


def _spec(cells=CELLS, total_nodes=6):
    return FleetSpec(
        cells=cells,
        seed=7,
        total_nodes=total_nodes,
        node_cpus=8,
        node_memory_gb=32.0,
        min_nodes_per_cell=2,
    )


@pytest.fixture(scope="module")
def baseline_runs():
    """The jobs=1 baseline fleet plus every run ``on_complete`` saw."""
    completed = []
    result = simulate_fleet(
        _spec(),
        options=OPTIONS,
        jobs=1,
        on_complete=lambda plan, run: completed.append(plan.label),
    )
    return result, completed


@pytest.fixture(scope="module")
def baseline(baseline_runs):
    return baseline_runs[0]


def test_plan_lowering(baseline):
    plan = plan_fleet(_spec(), OPTIONS)
    budgets = static_equal(_spec())
    probes = plan.probe_plans(budgets)
    assert [p.label for p in probes] == [
        "fleet:probe:a-media",
        "fleet:probe:b-video",
    ]
    probe_options = probes[0].kwargs["options"]
    assert probe_options.cluster.nodes == 3
    assert probe_options.cluster.node_cpus == 8
    assert probe_options.cluster.cap_on_full is True
    assert probe_options.duration_s == 50.0  # 5/12 of the main epoch
    assert probe_options.seed == 101
    # Equal budgets: one shared run per cell.
    mains = plan.main_plans({"greedy": budgets, "static": budgets})
    assert list(mains) == [("a-media", 3), ("b-video", 3)]
    assert [p.label for p in mains.values()] == [
        "fleet:greedy+static:a-media",
        "fleet:greedy+static:b-video",
    ]
    assert mains["a-media", 3].kwargs["options"].duration_s == 120.0
    # A one-node move between two of three cells: each moved cell adds
    # one plan (N + 2), the unmoved cell still shares one, and every
    # (allocator, cell) maps to the plan carrying its own node count.
    third = CellSpec("c-media", "media-service", "constant", seed=303)
    three = _spec(CELLS + (third,), total_nodes=9)
    plan = plan_fleet(three, OPTIONS)
    static = static_equal(three)
    greedy = {"a-media": 4, "b-video": 2, "c-media": 3}
    by_allocator = {"greedy": greedy, "static": static}
    mains = plan.main_plans(by_allocator)
    assert list(mains) == [
        ("a-media", 4),
        ("b-video", 2),
        ("c-media", 3),
        ("a-media", 3),
        ("b-video", 3),
    ]
    assert [p.label for p in mains.values()] == [
        "fleet:greedy:a-media",
        "fleet:greedy:b-video",
        "fleet:greedy+static:c-media",
        "fleet:static:a-media",
        "fleet:static:b-video",
    ]
    for budgets in by_allocator.values():
        for name, nodes in budgets.items():
            assert mains[name, nodes].kwargs["options"].cluster.nodes == nodes


def test_production_probe_measures_under_load():
    """At the ``fleet`` profile's own length (360-s cells) the probe epoch
    runs 150 s and offers load from the warm-up to ``DRAIN_S`` before its
    end, so it measures a loaded cell from 60 s until the load stops.  A
    probe shorter than ``WARMUP_S + DRAIN_S`` offers no load at all."""
    plan = plan_fleet(_spec(), RunOptions(scale="fleet"))
    probe = plan.probe_options
    load_stop = probe.resolved_duration_s() - DRAIN_S
    measure_from = probe.resolved_measure_from_s()
    assert (probe.resolved_duration_s(), measure_from) == (150.0, 60.0)
    assert WARMUP_S < load_stop == 120.0
    assert measure_from < load_stop


def test_fleet_runs_each_distinct_deployment_once(baseline_runs):
    """Probe N plus one main run per distinct (cell, nodes): 2 + 2."""
    result, completed = baseline_runs
    assert completed == [
        "fleet:probe:a-media",
        "fleet:probe:b-video",
        "fleet:greedy+static:a-media",
        "fleet:greedy+static:b-video",
    ]
    for name in ("a-media", "b-video"):
        assert (
            result.outcomes["greedy"].results[name]
            is result.outcomes["static"].results[name]
        )


def test_fleet_is_jobs_invariant(baseline):
    """jobs=2 merges to byte-identical digests and dashboard text."""
    parallel = simulate_fleet(_spec(), options=OPTIONS, jobs=2)
    assert parallel.digests() == baseline.digests()
    assert parallel.fleet_digest() == baseline.fleet_digest()
    assert fleet_report(parallel)[0] == fleet_report(baseline)[0]


def test_fleet_is_cell_order_invariant(baseline):
    """Submitting cells in a different order changes nothing."""
    shuffled = simulate_fleet(
        _spec(cells=tuple(reversed(CELLS))), options=OPTIONS, jobs=1
    )
    assert shuffled.digests() == baseline.digests()
    assert shuffled.fleet_digest() == baseline.fleet_digest()
    assert fleet_report(shuffled)[0] == fleet_report(baseline)[0]


def test_allocator_purity(baseline):
    """A cell run is a pure function of its kwargs, so equal budgets
    may share one run."""
    static = baseline.outcomes["static"]
    greedy = baseline.outcomes["greedy"]
    # An uncontended fleet never rebalances...
    assert greedy.budgets == static.budgets
    # ...and two in-process runs with equal kwargs agree byte for byte.
    plan = plan_fleet(_spec(), OPTIONS)
    cell = CELLS[0]

    def run():
        return _run_fleet_cell(
            cell.app_name,
            cell.load_kind,
            plan.cell_options(plan.options, cell, static.budgets[cell.name]),
        )

    first, second = run(), run()
    assert first.run_digest is not None
    assert first.run_digest == second.run_digest
    assert first.windowed_violation_rate == second.windowed_violation_rate
    assert first.mean_cpu_allocation == second.mean_cpu_allocation
    assert first.completed_requests == second.completed_requests


def test_probe_without_slo_report_raises():
    """The allocators read error-budget pressure; no fallback formula."""
    budgets = static_equal(_spec())
    probe = {
        name: SimpleNamespace(
            slo=None,
            windowed_violation_rate=0.0,
            mean_cpu_allocation=1.0,
            capped_scale_ups=0,
        )
        for name in budgets
    }
    with pytest.raises(TelemetryError, match="'a-media' has no SLO report"):
        _probe_signals(_spec(), budgets, probe)


def test_fleet_meta_routes_to_fleet_scale(baseline):
    meta = experiment_meta(baseline)
    assert meta.experiment == "fleet"
    assert meta.scale == "fleet"
    assert meta.extra["fleet_digest"] == baseline.fleet_digest()
    assert set(meta.seeds) == {"a-media", "b-video"}
    assert set(meta.extra["budgets"]) == {"greedy", "static"}
    # Every main-epoch run is digested and summarised.
    assert set(meta.summaries) == {
        f"{alloc}/{cell}"
        for alloc in ("greedy", "static")
        for cell in ("a-media", "b-video")
    }
