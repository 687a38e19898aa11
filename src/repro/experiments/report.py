"""Plain-text rendering of experiment tables and figure series.

Benchmarks print the same rows/series the paper's tables and figures
report; these helpers keep the formatting consistent and diff-friendly
(EXPERIMENTS.md embeds their output).

The second half of the module is the deterministic run dashboard:
:func:`build_dashboard` folds any set of :class:`DeploymentResult`\\ s
(a Fig. 11/12 grid, or shards of one workload from ``run_many``) into a
:class:`RunDashboard` -- per-run violation/CPU rows, per-class latency
pooled across runs via :meth:`FixedHistogram.merge`, the merged alert
timeline, error-budget burn, critical-path attribution, budget-audit
verdicts, and top allocated services -- rendered as terminal text
(:func:`render_dashboard_text`) or a standalone HTML file
(:func:`render_dashboard_html`).  Both renderings are pure functions of
the results: no wall-clock timestamps, byte-identical for same-seed
reruns, so the HTML can be pinned by the results store like any other
artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.telemetry.slo import Alert, alerts_from_jsonl

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import DeploymentResult
    from repro.telemetry.audit import AuditVerdict
    from repro.telemetry.tracing import CriticalPathSummary

__all__ = [
    "RunDashboard",
    "build_dashboard",
    "render_dashboard_html",
    "render_dashboard_text",
    "render_table",
    "render_series",
    "render_heatmap",
    "render_attribution",
]


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width table with a header rule."""
    materialised = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("-" * len(header))
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(
    name: str,
    points: Iterable[tuple[float, float]],
    x_label: str = "x",
    y_label: str = "y",
    fmt: str = "{:.4g}",
) -> str:
    """One figure series as aligned (x, y) pairs."""
    lines = [f"{name}  [{x_label} -> {y_label}]"]
    for x, y in points:
        lines.append(f"  {fmt.format(x):>12s}  {fmt.format(y)}")
    return "\n".join(lines)


def render_heatmap(
    title: str,
    row_labels: Sequence[str],
    col_labels: Sequence[str],
    values: Sequence[Sequence[float]],
    fmt: str = "{:7.1f}",
) -> str:
    """A row-per-line heatmap (Fig. 2's tier x minute layout)."""
    if len(values) != len(row_labels):
        raise ValueError("row count mismatch")
    width = max(len(fmt.format(0.0)), *(len(c) for c in col_labels)) + 1
    lines = [title]
    label_width = max(len(r) for r in row_labels) + 1
    header = " " * label_width + "".join(c.rjust(width) for c in col_labels)
    lines.append(header)
    for label, row in zip(row_labels, values):
        if len(row) != len(col_labels):
            raise ValueError("column count mismatch")
        cells = "".join(fmt.format(v).rjust(width) for v in row)
        lines.append(label.ljust(label_width) + cells)
    return "\n".join(lines)


def render_attribution(
    summary: "CriticalPathSummary",
    top: int = 4,
    title: str | None = "critical-path attribution",
) -> str:
    """Critical-path fractions as a diff-friendly table.

    One row per (request class, service, phase) location, largest share
    of that class's total latency first, ``top`` rows per class --
    the tabular twin of ``CriticalPathSummary.render``.
    """
    rows = []
    for cls in summary.classes():
        agg = summary.pooled(cls)
        if not agg.requests:
            continue
        mean_ms = agg.total_latency / agg.requests * 1e3
        for service, phase, fraction in agg.fractions()[:top]:
            rows.append(
                (cls, agg.requests, f"{mean_ms:.1f}", service, phase,
                 f"{fraction:.1%}")
            )
    if not rows:
        return "(no traces collected)"
    return render_table(
        ("class", "traced", "mean_ms", "service", "phase", "share"),
        rows,
        title=title,
    )


# ----------------------------------------------------------------------
# The deterministic run dashboard
# ----------------------------------------------------------------------
#: Alert-timeline rows rendered before the dashboard truncates (the full
#: timeline always travels in sidecars; this bounds the report size).
_MAX_ALERT_ROWS = 40


@dataclass(frozen=True)
class RunDashboard:
    """Aggregated view over a set of deployment runs (plain data).

    Built by :func:`build_dashboard`; every field is deterministic given
    the results, so both renderings are byte-stable across reruns.
    """

    title: str
    #: Per-run rows: (label, violation rate, mean CPUs, completed,
    #: alert transitions or None when the run had no monitor).
    run_rows: list[tuple[str, float, float, int, int | None]]
    #: Per-class latency pooled across runs via FixedHistogram.merge:
    #: (class, count, mean_ms, p50_ms, p99_ms, violation fraction or
    #: None when no SLA target was supplied).
    class_rows: list[tuple[str, int, float, float, float, float | None]]
    #: Merged alert timeline: (source label, Alert), time-ordered.
    alerts: list[tuple[str, Alert]]
    #: Error-budget burn rows: (label, class, budget consumed,
    #: fast burn, slow burn).
    burn_rows: list[tuple[str, str, float, float, float]]
    #: Critical-path attribution table (pre-rendered text; empty when
    #: no run carried traces).
    attribution: str
    #: Budget-audit verdicts (empty when no audit ran).
    audit: list["AuditVerdict"] = field(default_factory=list)
    #: Top services by mean allocated CPUs summed across runs:
    #: (service, mean CPUs).
    utilization_rows: list[tuple[str, float]] = field(default_factory=list)
    #: Caller-supplied sections rendered before the run rows, as
    #: (title, headers, rows) -- already-formatted strings.  The fleet
    #: dashboard uses this for its allocator/budget tables; any other
    #: aggregation can ride along the same way.
    extra_tables: list[tuple[str, tuple[str, ...], list[tuple[str, ...]]]] = (
        field(default_factory=list)
    )


def _merged_class_histograms(results: Mapping[str, "DeploymentResult"]):
    merged: dict = {}
    for _label, result in sorted(results.items()):
        if result.metrics is None:
            continue
        for cls, hist in sorted(result.metrics.latency_by_class.items()):
            if not hist.count:
                continue
            merged[cls] = hist if cls not in merged else merged[cls].merge(hist)
    return merged


def build_dashboard(
    results: Mapping[str, "DeploymentResult"],
    sla_targets: Mapping[str, float] | None = None,
    audit: "list[AuditVerdict] | None" = None,
    title: str = "run dashboard",
    extra_tables: (
        "list[tuple[str, tuple[str, ...], list[tuple[str, ...]]]] | None"
    ) = None,
) -> RunDashboard:
    """Fold deployment results into one :class:`RunDashboard`.

    ``results`` maps a display label (e.g. ``app/load/manager`` or
    ``shard-3``) to its :class:`DeploymentResult`; labels are the
    timeline's source names.  ``sla_targets`` (class -> seconds) enables
    the pooled violation-fraction column; ``audit`` attaches
    budget-audit verdicts; ``extra_tables`` prepends caller sections
    (see :class:`RunDashboard.extra_tables`).
    """
    run_rows = []
    alerts: list[tuple[str, Alert]] = []
    burn_rows = []
    for label, result in sorted(results.items()):
        slo = result.slo
        run_rows.append(
            (
                label,
                result.windowed_violation_rate,
                result.mean_cpu_allocation,
                result.completed_requests,
                slo.alert_transitions if slo is not None else None,
            )
        )
        if slo is not None:
            for alert in alerts_from_jsonl(slo.alerts_jsonl):
                alerts.append((label, alert))
            for cls, row in sorted(slo.budget_report.items()):
                burn_rows.append(
                    (
                        label,
                        cls,
                        row["budget_consumed"],
                        row["fast_burn"],
                        row["slow_burn"],
                    )
                )
    alerts.sort(key=lambda item: (item[1].time, item[0], item[1].name))

    class_rows = []
    for cls, hist in sorted(_merged_class_histograms(results).items()):
        target = (sla_targets or {}).get(cls)
        class_rows.append(
            (
                cls,
                hist.count,
                hist.mean * 1e3,
                hist.percentile(50.0) * 1e3,
                hist.percentile(99.0) * 1e3,
                hist.fraction_above(target) if target is not None else None,
            )
        )

    from repro.telemetry.tracing import CriticalPathSummary, traces_from_jsonl

    summary = CriticalPathSummary()
    traced = 0
    for _label, result in sorted(results.items()):
        if result.traces is None:
            continue
        for trace in traces_from_jsonl(result.traces.jsonl):
            summary.add(trace)
            traced += 1
    attribution = render_attribution(summary) if traced else ""

    allocation: dict[str, float] = {}
    for _label, result in sorted(results.items()):
        if result.metrics is None:
            continue
        for service, cpus in result.metrics.cpu_by_service.items():
            allocation[service] = allocation.get(service, 0.0) + cpus
    utilization_rows = sorted(
        allocation.items(), key=lambda item: (-item[1], item[0])
    )[:10]

    return RunDashboard(
        title=title,
        run_rows=run_rows,
        class_rows=class_rows,
        alerts=alerts,
        burn_rows=burn_rows,
        attribution=attribution,
        audit=list(audit or []),
        utilization_rows=utilization_rows,
        extra_tables=list(extra_tables or []),
    )


def render_dashboard_text(dash: RunDashboard) -> str:
    """Terminal rendering of a dashboard (diff-friendly, deterministic)."""
    from repro.telemetry.audit import render_audit

    parts = [dash.title, "=" * len(dash.title), ""]
    for table_title, headers, rows in dash.extra_tables:
        parts.append(render_table(headers, rows, title=table_title))
        parts.append("")
    parts.append(
        render_table(
            ("run", "violation_rate", "mean_cpus", "completed", "alerts"),
            [
                (label, f"{viol:.4f}", f"{cpus:.1f}", completed,
                 "-" if transitions is None else transitions)
                for label, viol, cpus, completed, transitions in dash.run_rows
            ],
            title="runs",
        )
    )
    if dash.class_rows:
        parts.append("")
        parts.append(
            render_table(
                ("class", "requests", "mean_ms", "p50_ms", "p99_ms",
                 "violations"),
                [
                    (cls, count, f"{mean:.1f}", f"{p50:.1f}", f"{p99:.1f}",
                     "-" if frac is None else f"{frac:.2%}")
                    for cls, count, mean, p50, p99, frac in dash.class_rows
                ],
                title="latency by class (merged across runs)",
            )
        )
    if dash.burn_rows:
        parts.append("")
        parts.append(
            render_table(
                ("run", "class", "budget_consumed", "fast_burn", "slow_burn"),
                [
                    (label, cls, f"{consumed:.3f}", f"{fast:.2f}",
                     f"{slow:.2f}")
                    for label, cls, consumed, fast, slow in dash.burn_rows
                ],
                title="error-budget burn",
            )
        )
    parts.append("")
    if dash.alerts:
        shown = dash.alerts[:_MAX_ALERT_ROWS]
        rows = [
            (f"{alert.time:.1f}", label, alert.name, alert.request_class,
             alert.state, f"{alert.fast_burn:.2f}", f"{alert.slow_burn:.2f}")
            for label, alert in shown
        ]
        parts.append(
            render_table(
                ("t_sim", "run", "alert", "class", "state", "fast", "slow"),
                rows,
                title=f"alert timeline ({len(dash.alerts)} transitions)",
            )
        )
        if len(dash.alerts) > len(shown):
            parts.append(f"... {len(dash.alerts) - len(shown)} more")
    else:
        parts.append("alert timeline: no transitions")
    if dash.attribution:
        parts.append("")
        parts.append(dash.attribution)
    if dash.audit:
        parts.append("")
        parts.append(render_audit(dash.audit).rstrip("\n"))
    if dash.utilization_rows:
        parts.append("")
        parts.append(
            render_table(
                ("service", "mean_cpus"),
                [(svc, f"{cpus:.1f}") for svc, cpus in dash.utilization_rows],
                title="top allocated services (summed across runs)",
            )
        )
    return "\n".join(parts) + "\n"


def _html_escape(text: object) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
    )


class _Raw(str):
    """A cell whose value is already HTML (skipped by escaping)."""


def _cell(value: object) -> str:
    return value if isinstance(value, _Raw) else _html_escape(value)


def _html_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], caption: str
) -> str:
    cells = "".join(f"<th>{_html_escape(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_cell(c)}</td>" for c in row) + "</tr>"
        for row in rows
    )
    return (
        f"<table><caption>{_html_escape(caption)}</caption>"
        f"<thead><tr>{cells}</tr></thead><tbody>{body}</tbody></table>"
    )


def _bar(fraction: float, color: str = "#c33") -> _Raw:
    width = max(0.0, min(1.0, fraction)) * 100.0
    return _Raw(
        '<span class="bar"><span style="width:'
        f'{width:.1f}%;background:{color}"></span></span>'
    )


_HTML_STYLE = """
body { font-family: ui-monospace, monospace; margin: 2em; color: #222; }
h1 { font-size: 1.3em; } h2 { font-size: 1.1em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.8em 0; }
caption { text-align: left; font-weight: bold; padding-bottom: 0.3em; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em; text-align: left; }
th { background: #eee; }
.bar { display: inline-block; width: 120px; height: 0.8em;
       background: #eee; vertical-align: middle; }
.bar span { display: block; height: 100%; }
.fire { color: #b00; font-weight: bold; } .resolve { color: #080; }
.mismatch { color: #b00; font-weight: bold; } .ok { color: #080; }
pre { background: #f6f6f6; padding: 0.8em; overflow-x: auto; }
"""


def render_dashboard_html(dash: RunDashboard) -> str:
    """Standalone-HTML rendering of a dashboard.

    Pure function of the dashboard data -- no wall-clock timestamps, no
    external assets -- so the file is byte-identical across same-seed
    reruns and the results store can pin its hash.
    """
    sections = [f"<h1>{_html_escape(dash.title)}</h1>"]
    for table_title, headers, rows in dash.extra_tables:
        sections.append(_html_table(headers, rows, table_title))
    sections.append(
        _html_table(
            ("run", "violation rate", "", "mean CPUs", "completed", "alerts"),
            [
                (label, f"{viol:.4f}", _bar(viol * 10.0), f"{cpus:.1f}",
                 completed, "-" if transitions is None else transitions)
                for label, viol, cpus, completed, transitions in dash.run_rows
            ],
            "runs",
        )
    )
    if dash.class_rows:
        sections.append(
            _html_table(
                ("class", "requests", "mean ms", "p50 ms", "p99 ms",
                 "violations", ""),
                [
                    (cls, count, f"{mean:.1f}", f"{p50:.1f}", f"{p99:.1f}",
                     "-" if frac is None else f"{frac:.2%}",
                     "" if frac is None else _bar(frac * 10.0))
                    for cls, count, mean, p50, p99, frac in dash.class_rows
                ],
                "latency by class (merged across runs)",
            )
        )
    if dash.burn_rows:
        sections.append(
            _html_table(
                ("run", "class", "budget consumed", "", "fast burn",
                 "slow burn"),
                [
                    (label, cls, f"{consumed:.3f}",
                     _bar(consumed, color="#d80"), f"{fast:.2f}",
                     f"{slow:.2f}")
                    for label, cls, consumed, fast, slow in dash.burn_rows
                ],
                "error-budget burn",
            )
        )
    if dash.alerts:
        shown = dash.alerts[:_MAX_ALERT_ROWS]
        rows = [
            (f"{alert.time:.1f}", label, alert.name, alert.request_class,
             _Raw('<span class="'
                  f'{_html_escape(alert.state)}">'
                  f'{_html_escape(alert.state)}</span>'),
             f"{alert.fast_burn:.2f}", f"{alert.slow_burn:.2f}")
            for label, alert in shown
        ]
        sections.append(
            _html_table(
                ("t_sim", "run", "alert", "class", "state", "fast", "slow"),
                rows,
                f"alert timeline ({len(dash.alerts)} transitions)",
            )
        )
    else:
        sections.append("<p>alert timeline: no transitions</p>")
    if dash.attribution:
        sections.append(
            "<h2>critical-path attribution</h2>"
            f"<pre>{_html_escape(dash.attribution)}</pre>"
        )
    if dash.audit:
        rows = []
        for v in dash.audit:
            css = "mismatch" if v.mismatch else "ok"
            verdict = "MISMATCH" if v.mismatch else "ok"
            rows.append(
                (_Raw(f'<span class="{css}">{verdict}</span>'),
                 v.request_class, v.traced_requests, v.detail)
            )
        sections.append(
            _html_table(
                ("verdict", "class", "traced", "detail"),
                rows,
                "budget audit (observed critical path vs MIP budgets)",
            )
        )
    if dash.utilization_rows:
        top = dash.utilization_rows[0][1] if dash.utilization_rows else 1.0
        sections.append(
            _html_table(
                ("service", "mean CPUs", ""),
                [
                    (svc, f"{cpus:.1f}", _bar(cpus / top if top else 0.0,
                                              color="#36c"))
                    for svc, cpus in dash.utilization_rows
                ],
                "top allocated services (summed across runs)",
            )
        )
    body = "\n".join(sections)
    return (
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
        f"<title>{_html_escape(dash.title)}</title>"
        f"<style>{_HTML_STYLE}</style></head>\n"
        f"<body>\n{body}\n</body></html>\n"
    )
