"""SLO monitor: window math, alert hysteresis, and the purity contract.

The unit tests drive :class:`SLOMonitor` with a hand-cranked clock so the
multi-window burn arithmetic is checked against exact fractions; the
deployment tests pin the two reproduction invariants -- enabling the
monitor never changes the simulated timeline (same-seed ``RunDigest``
identical on vs off), and same-seed reruns dump byte-identical alert
streams.
"""

import pytest

from repro.errors import TelemetryError
from repro.experiments.artifacts import app_spec
from repro.api import RunOptions, SLOOptions, run_deployment
from repro.telemetry.slo import (
    ALERT_BUDGET_EXHAUSTED,
    ALERT_BURN_RATE,
    BURN_FIRE_RATE,
    Alert,
    SLOMonitor,
    SLOSpec,
    alerts_digest,
    alerts_from_jsonl,
    alerts_to_jsonl,
    slo_specs_for,
)
from repro.workload.defaults import default_mix_for
from repro.workload.patterns import ConstantLoad


def burn_rates(monitor: SLOMonitor, request_class: str) -> tuple[float, float]:
    """Current (fast, slow) burn rates of one class, from the budget report."""
    report = monitor.budget_report()[request_class]
    return report["fast_burn"], report["slow_burn"]


def firing(monitor: SLOMonitor) -> list[tuple[str, str]]:
    """``(request_class, alert_name)`` pairs whose last transition in the
    alert timeline fired, by class and then in first-fire order."""
    latest: dict[tuple[str, str], str] = {}
    for alert in monitor.alerts:
        latest[(alert.request_class, alert.name)] = alert.state
    active = [key for key, state in latest.items() if state == "fire"]
    return sorted(active, key=lambda key: key[0])


class Clock:
    """Hand-cranked sim clock for unit-level monitor tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def make_monitor(clock, **overrides):
    kwargs = dict(
        fast_window_s=10.0,
        slow_window_s=30.0,
        bucket_s=1.0,
    )
    kwargs.update(overrides)
    return SLOMonitor(
        [SLOSpec("read", target_s=0.1, objective=0.99)], clock, **kwargs
    )


# -- spec validation -------------------------------------------------------


def test_spec_rejects_bad_target_and_objective():
    with pytest.raises(TelemetryError):
        SLOSpec("read", target_s=0.0)
    with pytest.raises(TelemetryError):
        SLOSpec("read", target_s=0.1, objective=1.0)
    with pytest.raises(TelemetryError):
        SLOSpec("read", target_s=0.1, objective=0.0)


def test_error_budget_is_one_minus_objective():
    assert SLOSpec("read", 0.1, objective=0.95).error_budget == pytest.approx(
        0.05
    )


def test_specs_from_app_sla_percentiles():
    spec = app_spec("social-network")
    slos = slo_specs_for(spec)
    assert {s.request_class for s in slos} == {
        rc.name for rc in spec.request_classes
    }
    by_class = {s.request_class: s for s in slos}
    for rc in spec.request_classes:
        slo = by_class[rc.name]
        assert slo.target_s == rc.sla.target_s
        assert slo.objective == pytest.approx(rc.sla.percentile / 100.0)


def test_monitor_rejects_bad_windows_and_duplicates():
    clock = Clock()
    with pytest.raises(TelemetryError):
        make_monitor(clock, bucket_s=0.0)
    with pytest.raises(TelemetryError):
        make_monitor(clock, fast_window_s=0.5)  # < bucket_s
    with pytest.raises(TelemetryError):
        make_monitor(clock, slow_window_s=5.0)  # < fast_window_s
    with pytest.raises(TelemetryError):
        SLOMonitor(
            [SLOSpec("read", 0.1), SLOSpec("read", 0.2)], clock
        )


# -- window math and alert transitions -------------------------------------


def test_all_bad_stream_fires_both_alerts_immediately():
    clock = Clock()
    monitor = make_monitor(clock)
    monitor.observe("read", 1.0)  # > target: bad
    # One bad request: windowed bad fraction 1.0 over a 0.01 budget.
    assert burn_rates(monitor, "read") == pytest.approx((100.0, 100.0))
    assert monitor.budget_consumed("read") == pytest.approx(100.0)
    assert [(a.name, a.state) for a in monitor.alerts] == [
        (ALERT_BURN_RATE, "fire"),
        (ALERT_BUDGET_EXHAUSTED, "fire"),
    ]
    assert firing(monitor) == [
        ("read", ALERT_BURN_RATE),
        ("read", ALERT_BUDGET_EXHAUSTED),
    ]


def test_burn_rate_resolves_with_hysteresis():
    clock = Clock()
    monitor = make_monitor(clock)
    monitor.observe("read", 1.0)
    assert ("read", ALERT_BURN_RATE) in firing(monitor)
    # Good completions dilute the windows; the alert must stay active
    # until BOTH windows fall to the resolve threshold (2.0), i.e. bad
    # fraction <= 0.02: with one bad that needs >= 50 requests in the
    # slow window.
    resolved_at = None
    for i in range(1, 60):
        clock.now = 0.1 * i  # all within the same buckets/windows
        monitor.observe("read", 0.01)
        if ("read", ALERT_BURN_RATE) not in firing(monitor):
            resolved_at = i + 1  # total requests seen
            break
    assert resolved_at == 50
    resolves = [a for a in monitor.alerts if a.state == "resolve"]
    assert [a.name for a in resolves] == [ALERT_BURN_RATE]
    assert resolves[0].fast_burn == pytest.approx(2.0)
    assert resolves[0].slow_burn == pytest.approx(2.0)


def test_budget_alert_outlives_burn_alert():
    clock = Clock()
    monitor = make_monitor(clock)
    monitor.observe("read", 1.0)
    for i in range(1, 100):
        clock.now = 0.1 * i
        monitor.observe("read", 0.01)
    # Burn rate resolved (windowed), but the cumulative budget is still
    # exhausted: 1 bad / 100 total = 0.01 bad fraction = 1.0x the budget,
    # above the 0.9 resolve threshold.
    assert firing(monitor) == [("read", ALERT_BUDGET_EXHAUSTED)]
    for i in range(100, 120):
        clock.now = 0.1 * i
        monitor.observe("read", 0.01)
    # 1/112 < 0.009 crosses the 0.9x hysteresis line.
    assert firing(monitor) == []
    states = [
        (a.name, a.state)
        for a in monitor.alerts
        if a.name == ALERT_BUDGET_EXHAUSTED
    ]
    assert states == [
        (ALERT_BUDGET_EXHAUSTED, "fire"),
        (ALERT_BUDGET_EXHAUSTED, "resolve"),
    ]


def test_old_buckets_retire_from_the_windows():
    clock = Clock()
    monitor = make_monitor(clock)
    monitor.observe("read", 1.0)  # bad at t=0
    clock.now = 100.0  # far past the 30 s slow window
    monitor.observe("read", 0.01)
    # Both windows contain only the fresh good request.
    assert burn_rates(monitor, "read") == (0.0, 0.0)
    # Cumulative accounting never forgets.
    assert monitor.budget_consumed("read") == pytest.approx(50.0)


def test_queries_decay_after_clock_passes_last_completion():
    clock = Clock()
    monitor = make_monitor(clock)
    monitor.observe("read", 1.0)  # bad at t=0
    assert burn_rates(monitor, "read") == pytest.approx((100.0, 100.0))
    # No further completions: queries alone must retire expired buckets
    # against the current clock.  The 10 s fast window empties first.
    clock.now = 15.0
    fast, slow = burn_rates(monitor, "read")
    assert fast == 0.0
    assert slow == pytest.approx(100.0)
    clock.now = 100.0  # past the 30 s slow window too
    assert burn_rates(monitor, "read") == (0.0, 0.0)
    report = monitor.budget_report()
    assert report["read"]["fast_burn"] == 0.0
    assert report["read"]["slow_burn"] == 0.0
    # Cumulative accounting never forgets.
    assert report["read"]["budget_consumed"] == pytest.approx(100.0)


def test_multi_window_rule_needs_both_windows_burning():
    clock = Clock()
    monitor = make_monitor(clock)
    # Prime the slow window with enough good traffic that a short blip
    # keeps the slow burn below threshold.
    for i in range(200):
        clock.now = 0.1 * i
        monitor.observe("read", 0.01)
    clock.now = 25.0
    for _ in range(5):
        monitor.observe("read", 1.0)  # fast burn spikes, slow stays low
    fast, slow = burn_rates(monitor, "read")
    assert fast >= BURN_FIRE_RATE
    assert slow < BURN_FIRE_RATE
    # The blip is filtered: no burn-rate page (the cumulative budget
    # alert is separate accounting and may legitimately fire).
    assert ("read", ALERT_BURN_RATE) not in firing(monitor)


def test_unknown_class_and_unregistered_alert_raise():
    clock = Clock()
    monitor = make_monitor(clock)
    with pytest.raises(TelemetryError, match="no SLO spec"):
        monitor.observe("write", 0.01)
    with pytest.raises(TelemetryError, match="not declared"):
        monitor._emit("slo-typo", "read", "fire", 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(TelemetryError, match="state"):
        monitor._emit(ALERT_BURN_RATE, "read", "firing", 0.0, 0.0, 0.0, 0.0)


# -- serialization ---------------------------------------------------------


def test_alert_jsonl_round_trip_and_digest():
    alerts = [
        Alert(ALERT_BURN_RATE, "read", "fire", 12.5, 8.0, 4.5, 0.3),
        Alert(ALERT_BURN_RATE, "read", "resolve", 40.0, 1.0, 2.0, 0.4),
    ]
    jsonl = alerts_to_jsonl(alerts)
    assert jsonl.endswith("\n")
    assert alerts_from_jsonl(jsonl) == alerts
    assert alerts_digest(jsonl) == alerts_digest(jsonl)
    assert alerts_digest(jsonl) != alerts_digest("")
    assert alerts_to_jsonl([]) == ""


def test_alerts_from_jsonl_rejects_unknown_state():
    # Loaded alerts flow into raw-HTML dashboard cells; a hand-edited
    # sidecar must not smuggle arbitrary strings through ``state``.
    jsonl = alerts_to_jsonl(
        [Alert(ALERT_BURN_RATE, "read", "fire", 0.0, 1.0, 1.0, 0.1)]
    ).replace('"fire"', '"<script>alert(1)</script>"')
    with pytest.raises(TelemetryError, match="state"):
        alerts_from_jsonl(jsonl)


# -- deployment-level purity and reproducibility ---------------------------

SLO_OPTIONS = SLOOptions(fast_window_s=10.0, slow_window_s=30.0, bucket_s=2.0)


def attach_noop(app) -> None:
    """Stand-in resource manager: fixed replicas, nothing to attach."""


def slo_run(seed: int, slo: bool = True):
    return run_deployment(
        app_spec("social-network"),
        default_mix_for("social-network"),
        ConstantLoad(25.0),
        attach_noop,
        manager_name="noop",
        load_name="constant",
        options=RunOptions(
            seed=seed,
            duration_s=50.0,
            measure_from_s=15.0,
            slo=SLO_OPTIONS if slo else None,
            digest=True,
        ),
    )


@pytest.fixture(scope="module")
def monitored_run():
    return slo_run(21)


def test_monitor_is_a_pure_observer(monitored_run):
    bare = slo_run(21, slo=False)
    assert bare.slo is None
    assert monitored_run.slo is not None
    assert monitored_run.run_digest == bare.run_digest
    assert monitored_run.completed_requests == bare.completed_requests
    assert (
        monitored_run.windowed_violation_rate == bare.windowed_violation_rate
    )


def test_alert_stream_is_byte_identical_across_reruns(monitored_run):
    rerun = slo_run(21)
    assert rerun.slo.alerts_jsonl == monitored_run.slo.alerts_jsonl
    assert rerun.slo.budget_report == monitored_run.slo.budget_report
    assert rerun.run_digest == monitored_run.run_digest


def test_budget_report_covers_every_class(monitored_run):
    spec = app_spec("social-network")
    report = monitored_run.slo.budget_report
    assert set(report) == {rc.name for rc in spec.request_classes}
    for row in report.values():
        assert row["good"] + row["bad"] > 0
        assert 0.0 < row["objective"] < 1.0
    total = sum(r["good"] + r["bad"] for r in report.values())
    # The monitor sees every completion, warmup included.
    assert total >= monitored_run.completed_requests
    assert monitored_run.slo.alert_transitions == len(
        alerts_from_jsonl(monitored_run.slo.alerts_jsonl)
    )
