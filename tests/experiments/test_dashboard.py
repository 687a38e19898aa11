"""Run dashboard: shard merging, alert timelines, deterministic rendering.

Builds dashboards from synthetic :class:`DeploymentResult` shards so the
histogram merge, alert ordering, and both renderers are pinned without
paying for deployments.  The end-to-end path over real SLO-monitored runs
is byte-pinned by the CI fleet smoke (``results/fleet/fleet_smoke.txt``
and ``.html``) and compared across job counts by
``tests/fleet/test_fleet_determinism.py``.
"""

from repro.experiments.report import (
    build_dashboard,
    render_dashboard_html,
    render_dashboard_text,
)
from repro.experiments.runner import (
    DeploymentMetrics,
    DeploymentResult,
    SLOArtifacts,
)
from repro.telemetry.audit import AuditVerdict
from repro.stats.histogram import FixedHistogram
from repro.telemetry.slo import ALERT_BURN_RATE, Alert, alerts_to_jsonl


def make_result(
    label_seed: int,
    samples,
    cpu_by_service=None,
    alerts=(),
    budget_report=None,
) -> DeploymentResult:
    hist = FixedHistogram.from_samples(samples)
    slo = None
    if alerts or budget_report:
        slo = SLOArtifacts(
            alert_transitions=len(alerts),
            alerts_jsonl=alerts_to_jsonl(alerts),
            budget_report=budget_report or {},
        )
    return DeploymentResult(
        app_name="toy",
        manager="noop",
        load_name="constant",
        windowed_violation_rate=0.02 * label_seed,
        mean_cpu_allocation=4.0,
        per_class_violation_rate={"read": 0.02},
        completed_requests=hist.count,
        wall_seconds=0.0,
        metrics=DeploymentMetrics(
            measure_from_s=0.0,
            duration_s=10.0,
            latency_by_class={"read": hist},
            cpu_by_service=cpu_by_service or {"frontend": 2.0, "db": 1.0},
            final_replicas={},
        ),
        run_digest=None,
        traces=None,
        slo=slo,
    )


BUDGET_ROW = {
    "good": 90.0,
    "bad": 10.0,
    "objective": 0.99,
    "target_s": 0.1,
    "budget_consumed": 0.5,
    "fast_burn": 1.5,
    "slow_burn": 0.5,
}


def two_shards():
    fire = Alert(ALERT_BURN_RATE, "read", "fire", 12.0, 8.0, 4.5, 0.3)
    resolve = Alert(ALERT_BURN_RATE, "read", "resolve", 30.0, 1.0, 1.9, 0.4)
    early = Alert(ALERT_BURN_RATE, "read", "fire", 5.0, 9.0, 5.0, 0.2)
    return {
        "shard-1": make_result(
            1,
            [0.01, 0.02, 0.20],
            alerts=[fire, resolve],
            budget_report={"read": BUDGET_ROW},
        ),
        "shard-2": make_result(2, [0.03, 0.04], alerts=[early]),
    }


def test_class_histograms_merge_across_shards():
    dash = build_dashboard(two_shards(), sla_targets={"read": 0.1})
    assert [row[0] for row in dash.run_rows] == ["shard-1", "shard-2"]
    (cls, count, _mean, _p50, _p99, frac) = dash.class_rows[0]
    assert cls == "read"
    assert count == 5  # 3 + 2: FixedHistogram.merge pooled the shards
    assert abs(frac - 0.2) < 1e-9  # 1 of 5 over the 100 ms target
    # Utilization sums across shards, dominant first.
    assert dash.utilization_rows[0] == ("frontend", 4.0)


def test_alert_timeline_is_time_ordered_across_sources():
    dash = build_dashboard(two_shards())
    times = [alert.time for _label, alert in dash.alerts]
    assert times == sorted(times)
    assert [label for label, _ in dash.alerts] == [
        "shard-2",
        "shard-1",
        "shard-1",
    ]
    # Without SLA targets the violation column is absent, not zero.
    assert dash.class_rows[0][5] is None


def test_burn_rows_only_for_monitored_runs():
    dash = build_dashboard(two_shards())
    assert dash.burn_rows == [("shard-1", "read", 0.5, 1.5, 0.5)]
    bare = build_dashboard({"r": make_result(1, [0.01])})
    assert bare.run_rows[0][4] is None  # no monitor: alerts column dashed
    assert bare.burn_rows == []
    assert bare.alerts == []


def test_text_rendering_is_deterministic_and_sectioned():
    results = two_shards()
    audit = [
        AuditVerdict(
            request_class="read",
            traced_requests=50,
            observed_service="db",
            observed_share=0.9,
            budget_service="frontend",
            budget_share=0.8,
            mismatch=True,
            detail="observed time concentrates on db",
        )
    ]
    dash = build_dashboard(results, sla_targets={"read": 0.1}, audit=audit)
    text = render_dashboard_text(dash)
    again = render_dashboard_text(
        build_dashboard(results, sla_targets={"read": 0.1}, audit=audit)
    )
    assert text == again
    for needle in (
        "runs",
        "latency by class",
        "error-budget burn",
        "alert timeline",
        "MISMATCH",
    ):
        assert needle in text


def test_html_rendering_is_deterministic_and_escaped():
    results = two_shards()
    results["<evil> & shard"] = make_result(3, [0.05])
    dash = build_dashboard(results, sla_targets={"read": 0.1})
    html = render_dashboard_html(dash)
    assert html == render_dashboard_html(build_dashboard(
        results, sla_targets={"read": 0.1}
    ))
    assert html.startswith("<!DOCTYPE html>")
    assert "&lt;evil&gt; &amp; shard" in html
    assert "<evil>" not in html
    assert 'class="fire"' in html  # alert states styled, not escaped


def test_empty_dashboard_renders():
    dash = build_dashboard({})
    assert render_dashboard_text(dash)
    assert render_dashboard_html(dash).startswith("<!DOCTYPE html>")
