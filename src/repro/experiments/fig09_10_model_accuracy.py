"""Figs. 9 & 10 -- estimated vs measured latency.

Runs an Ursa-managed deployment, and every evaluation window compares the
measured SLA-percentile latency of each request class against the model's
estimate: the MIP's sum-of-percentiles bound multiplied by the expected
overestimation ratio (§IV's mitigation, tracked online with an EWMA).  The
estimate for window *k* uses only observations from windows before *k*,
so the comparison is out-of-sample.

Paper shapes: estimates track measurements closely, with mean
estimated/measured ratios of 0.97-1.05 (social network, Fig. 9) and
0.96 / 1.00 (video pipeline priorities, Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.overestimation import OverestimationTracker
from repro.experiments import artifacts
from repro.experiments.managers import attach_ursa
from repro.experiments.report import render_attribution, render_series
from repro.experiments.runner import (
    RunOptions,
    TraceArtifacts,
    scale_profile,
    start_deployment,
)
from repro.experiments.store import RunMeta
from repro.workload.defaults import default_mix_for
from repro.workload.patterns import ConstantLoad

__all__ = [
    "AccuracySeries",
    "ModelAccuracyResult",
    "run_model_accuracy",
    "experiment_meta",
]

#: Fig. 9's four representative social-network request types.
FIG9_CLASSES = (
    "upload-post",
    "update-timeline",
    "object-detect",
    "sentiment-analysis",
)


@dataclass
class AccuracySeries:
    request_class: str
    percentile: float
    #: (window start time, measured, estimated) triples.
    points: list[tuple[float, float, float]] = field(default_factory=list)

    @property
    def mean_ratio(self) -> float:
        """Mean estimated/measured ratio (the paper's summary statistic)."""
        ratios = [e / m for _, m, e in self.points if m > 0]
        if not ratios:
            return float("nan")
        return sum(ratios) / len(ratios)

    def render(self) -> str:
        measured = render_series(
            f"measured p{self.percentile:g} [{self.request_class}]",
            [(t, m) for t, m, _ in self.points],
            "t_s",
            "latency_s",
        )
        estimated = render_series(
            f"estimated p{self.percentile:g} [{self.request_class}]",
            [(t, e) for t, _, e in self.points],
            "t_s",
            "latency_s",
        )
        return f"{measured}\n{estimated}\nmean est/meas ratio: {self.mean_ratio:.3f}"


@dataclass
class ModelAccuracyResult:
    app_name: str
    series: dict[str, AccuracySeries]
    #: Per-class critical-path attribution (set when tracing was on).
    critical_path: str | None = None
    traced_requests: int = 0
    #: Serialized span trees (set when tracing was on) -- the raw input
    #: to the ``--dump-traces`` flag's Chrome-trace export.
    traces: TraceArtifacts | None = field(repr=False, default=None)
    #: Event-trace checksum (set when ``options.digest``).  Persisted in
    #: the ``results/`` sidecar by :func:`experiment_meta`, not rendered
    #: -- provenance lives next to the text, not inside it.
    run_digest: str | None = None

    def render(self) -> str:
        parts = ["\n\n".join(s.render() for s in self.series.values())]
        if self.critical_path is not None:
            parts.append(
                f"critical path ({self.traced_requests} traced requests):\n"
                f"{self.critical_path}"
            )
        return "\n\n".join(parts)


#: Historical default seed for Fig. 9/10 runs (predates RunOptions).
FIG9_10_SEED = 17


def run_model_accuracy(
    app_name: str,
    classes: tuple[str, ...] | None = None,
    window_s: float = 60.0,
    options: RunOptions | None = None,
) -> ModelAccuracyResult:
    """Deploy under Ursa and collect measured-vs-estimated series.

    Per-run knobs travel in ``options``.  With ``options.tracing`` the
    run also samples span trees and reports where each class's latency
    accrues -- the request-level cross-check of the model's per-service
    latency targets.  ``options.digest`` additionally checksums the full
    event trace (reproducibility fingerprint).  The deployment starts in
    :func:`~repro.experiments.runner.start_deployment`, with constant
    load on ``seed + 1`` until the end of the run.
    """
    # This experiment's historical default seed differs from RunOptions'
    # 0; keep rendered outputs stable for callers that pass no options.
    options = options if options is not None else RunOptions(seed=FIG9_10_SEED)
    duration = options.resolved_duration_s()
    spec = artifacts.app_spec(app_name)
    mix = default_mix_for(app_name)
    rps = artifacts.app_rps(app_name)
    run = start_deployment(
        spec,
        mix,
        ConstantLoad(rps),
        attach_ursa(artifacts.exploration_result(app_name), mix.class_loads(rps)),
        options,
        load_seed=options.seed + 1,
        load_stop_s=duration,
    )
    app, manager = run.app, run.manager

    wanted = classes if classes is not None else tuple(
        rc.name for rc in spec.request_classes
    )
    slas = {rc.name: rc.sla for rc in spec.request_classes}
    tracker = OverestimationTracker()
    series = {
        name: AccuracySeries(name, slas[name].percentile) for name in wanted
    }
    env = app.env
    start = min(options.resolved_measure_from_s(), duration)
    env.run(until=start)
    t = start
    while t + window_s <= duration:
        env.run(until=t + window_s)
        assert manager.outcome is not None
        for name in wanted:
            dist = app.hub.latency_distribution(
                "request_latency", t, t + window_s, {"request": name}
            )
            bound = manager.outcome.predicted_bounds.get(name)
            if not dist or bound is None or dist.count < 10:
                continue
            measured = dist.percentile(slas[name].percentile)
            estimate = tracker.estimate(name, bound)  # pre-observation
            series[name].points.append((t, measured, estimate))
            tracker.observe(name, measured, bound)
        t += window_s
    critical_path = None
    if run.tracer is not None:
        critical_path = render_attribution(
            run.tracer.summary(window_s=window_s), title=None
        )
    trace_artifacts = run.trace_artifacts()
    return ModelAccuracyResult(
        app_name=app_name,
        series=series,
        critical_path=critical_path,
        traced_requests=(
            trace_artifacts.traced_requests if trace_artifacts is not None else 0
        ),
        traces=trace_artifacts,
        run_digest=run.run_digest(),
    )


def experiment_meta(
    result: ModelAccuracyResult,
    experiment: str,
    seed: int = FIG9_10_SEED,
) -> RunMeta:
    """Provenance sidecar for a Fig. 9/10 output (one Ursa deployment)."""
    digests = {}
    if result.run_digest is not None:
        digests[result.app_name] = result.run_digest
    return RunMeta(
        experiment=experiment,
        scale=scale_profile().name,
        seeds={result.app_name: seed},
        digests=digests,
        summaries={
            name: {
                "windows": float(len(series.points)),
                "mean_est_over_meas": round(series.mean_ratio, 9),
            }
            for name, series in result.series.items()
            if series.points
        },
    )
