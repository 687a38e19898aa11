"""Shared experiment harness: deployments under managed load.

Every managed §VII experiment starts its run the same way, in
:func:`start_deployment`: build the application on a fresh cluster
with :func:`repro.apps.topology.make_app` (with the run digest, span
tracer, cluster shape and SLO monitor ``RunOptions`` asks for), run the
empty deployment to the 10 s warm-up, attach the resource manager, and
only then start the load generator.  The load generator's seed and stop
time are the two things callers disagree on, so each caller passes its
own (``load_seed``, ``load_stop_s``).  What a run measures after that is
the caller's: :func:`run_deployment` takes the violation/allocation
summary the Fig. 11/12 grid and fleet cells use.

``make_app`` is the one deployment constructor in ``repro``: Fig. 2 and
the artifact builders (backpressure profiling, Algorithm 1 exploration,
Sinan/Firm training) call it directly, since they run their own
unmanaged protocols.

Scale profiles: the ``REPRO_SCALE`` environment variable selects ``quick``
(default -- minutes of simulated time per run, suitable for CI) or
``full`` (closer to the paper's durations).  All benchmarks honour it.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps.topology import Application, AppSpec, make_app
from repro.cluster.cluster import ClusterOptions
from repro.sim.random import RandomStreams
from repro.sim.trace import RunDigest
from repro.stats.histogram import FixedHistogram
from repro.telemetry.slo import SLOMonitor, slo_specs_for
from repro.telemetry.tracing import Tracer, traces_to_jsonl
from repro.workload.generator import LoadGenerator
from repro.workload.mixes import RequestMix

__all__ = [
    "ScaleProfile",
    "scale_profile",
    "DeploymentMetrics",
    "DeploymentResult",
    "ManagedRun",
    "RunOptions",
    "SLOArtifacts",
    "SLOOptions",
    "TraceArtifacts",
    "TracingOptions",
    "run_deployment",
    "start_deployment",
]


@dataclass(frozen=True)
class ScaleProfile:
    """Knobs trading fidelity for wall-clock time."""

    name: str
    #: Deployment run length and measurement start (simulated seconds).
    deployment_s: float
    measure_from_s: float
    #: Exploration (Algorithm 1) parameters.
    exploration_window_s: float
    exploration_samples_per_step: int
    exploration_warmup_s: float
    exploration_settle_s: float
    #: ML baseline training budgets (actually simulated).
    sinan_samples: int
    firm_samples: int
    #: Backpressure profiling.
    bp_window_s: float
    bp_samples_per_limit: int


_PROFILES = {
    "quick": ScaleProfile(
        name="quick",
        deployment_s=540.0,
        measure_from_s=120.0,
        exploration_window_s=20.0,
        exploration_samples_per_step=5,
        exploration_warmup_s=40.0,
        exploration_settle_s=10.0,
        sinan_samples=100,
        firm_samples=80,
        bp_window_s=6.0,
        bp_samples_per_limit=6,
    ),
    "full": ScaleProfile(
        name="full",
        deployment_s=2000.0,
        measure_from_s=300.0,
        exploration_window_s=60.0,
        exploration_samples_per_step=10,
        exploration_warmup_s=60.0,
        exploration_settle_s=30.0,
        sinan_samples=1000,
        firm_samples=500,
        bp_window_s=10.0,
        bp_samples_per_limit=8,
    ),
    # Per-cell durations for fleet runs (repro.fleet): many small tenant
    # cells instead of one big deployment, so each cell runs shorter than
    # a quick run.  Exploration/training knobs match quick exactly, so a
    # fleet cell can reuse artefacts cached at quick scale.
    "fleet": ScaleProfile(
        name="fleet",
        deployment_s=360.0,
        measure_from_s=90.0,
        exploration_window_s=20.0,
        exploration_samples_per_step=5,
        exploration_warmup_s=40.0,
        exploration_settle_s=10.0,
        sinan_samples=100,
        firm_samples=80,
        bp_window_s=6.0,
        bp_samples_per_limit=6,
    ),
}


def scale_profile() -> ScaleProfile:
    """The active scale profile (``REPRO_SCALE`` env var)."""
    name = os.environ.get("REPRO_SCALE", "quick")
    try:
        return _PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown REPRO_SCALE {name!r}; choose from {sorted(_PROFILES)}"
        ) from None


#: Default base RPS per application, sized so that key services need
#: several replicas (scaling decisions matter) while runs stay tractable.
DEFAULT_RPS = {
    "social-network": 150.0,
    "vanilla-social-network": 150.0,
    "media-service": 50.0,
    "video-pipeline": 2.5,
}


@dataclass(frozen=True)
class DeploymentMetrics:
    """Serializable telemetry bundle extracted from a finished run.

    ``run_deployment`` used to hand back the live :class:`Application`
    (whose annotation lied about its ``None`` default, and whose
    Environment/generator graph cannot be pickled).  Instead, everything
    downstream consumers may want to inspect is extracted over the
    measurement window before the simulation state is dropped, so results
    can cross process boundaries in :mod:`repro.experiments.parallel`.
    """

    #: Measurement window (simulated seconds) the summaries cover.
    measure_from_s: float
    duration_s: float
    #: Request class -> end-to-end latency summary (the paper's ``t(x)``
    #: histograms) over the measurement window.  Summarised to fixed-size
    #: :class:`~repro.stats.histogram.FixedHistogram`\ s before crossing
    #: the ``run_many`` process boundary: a full-scale run's raw sample
    #: lists pickle to megabytes per class, the histograms to kilobytes,
    #: with P99/violation-rate error bounded by
    #: ``FixedHistogram.relative_error_bound`` (~0.45 %); exact
    #: count/mean/min/max are preserved (see docs/performance.md).
    latency_by_class: dict[str, FixedHistogram]
    #: Service -> mean CPUs allocated over the measurement window.
    cpu_by_service: dict[str, float]
    #: Service -> replica count at the end of the run.
    final_replicas: dict[str, int]


@dataclass(frozen=True)
class TracingOptions:
    """How (and how much) to trace a deployment run.

    Plain data so experiment plans carrying it stay picklable; the live
    :class:`~repro.telemetry.tracing.Tracer` is built inside the worker
    via :meth:`build_tracer`.
    """

    #: Sample every n-th request of each class.
    sample_every_n: int = 100

    def build_tracer(self) -> Tracer:
        return Tracer(sample_every_n=self.sample_every_n)


@dataclass(frozen=True)
class SLOOptions:
    """How to monitor a run's SLOs (plain data, picklable).

    The live :class:`~repro.telemetry.slo.SLOMonitor` is built inside the
    worker via :meth:`build_monitor`; specs come from the application
    spec's per-class SLAs (a p99 SLA yields a 1 % error budget).
    """

    #: Rolling-window lengths and bucketing (simulated seconds).
    fast_window_s: float = 60.0
    slow_window_s: float = 300.0
    bucket_s: float = 5.0

    def build_monitor(self, spec: AppSpec, clock) -> SLOMonitor:
        return SLOMonitor(
            slo_specs_for(spec),
            clock=clock,
            fast_window_s=self.fast_window_s,
            slow_window_s=self.slow_window_s,
            bucket_s=self.bucket_s,
        )


@dataclass(frozen=True)
class SLOArtifacts:
    """Serialized SLO-monitor output of one run (picklable, deterministic)."""

    #: Total alert fire/resolve transitions over the run.
    alert_transitions: int
    #: Canonical JSON-lines dump of the alert timeline
    #: (:func:`~repro.telemetry.slo.alerts_to_jsonl` -- byte-identical
    #: across same-seed reruns).
    alerts_jsonl: str = field(repr=False)
    #: Per-class budget accounting at end of run.
    budget_report: dict[str, dict[str, float]] = field(default_factory=dict)


@dataclass(frozen=True)
class RunOptions:
    """Consolidated per-run options for every experiment entry point.

    Replaces the ``seed=``/``duration_s=``/``measure_from_s=``/
    ``tracing=``/``digest=`` keyword sprawl that had grown on
    :func:`run_deployment` and
    :func:`~repro.experiments.fig09_10_model_accuracy.run_model_accuracy`.
    Frozen plain data, so :class:`~repro.experiments.parallel.RunPlan`\\ s
    carry it across the process boundary unchanged and the results store
    (:mod:`repro.experiments.store`) can fold it into a run's identity.
    """

    #: Master seed for the run's random streams.
    seed: int = 0
    #: Run length / measurement start (simulated seconds); ``None`` means
    #: take them from the active scale profile.
    duration_s: float | None = None
    measure_from_s: float | None = None
    #: Span-tree sampling (``None`` = off).
    tracing: TracingOptions | None = None
    #: Streaming SLO monitoring (``None`` = off, costs nothing).
    slo: "SLOOptions | None" = None
    #: Checksum the full event trace into ``result.run_digest``.
    digest: bool = False
    #: Scale profile name override (``None`` = honour ``REPRO_SCALE``).
    scale: str | None = None
    #: Cluster shape override (``None`` = the default 8x96 testbed).
    cluster: ClusterOptions | None = None

    def profile(self) -> ScaleProfile:
        """The scale profile this run uses (explicit override or env)."""
        if self.scale is None:
            return scale_profile()
        try:
            return _PROFILES[self.scale]
        except KeyError:
            raise ValueError(
                f"unknown scale {self.scale!r}; choose from {sorted(_PROFILES)}"
            ) from None

    def resolved_duration_s(self) -> float:
        return (
            self.duration_s
            if self.duration_s is not None
            else self.profile().deployment_s
        )

    def resolved_measure_from_s(self) -> float:
        return (
            self.measure_from_s
            if self.measure_from_s is not None
            else self.profile().measure_from_s
        )

    def replace(self, **changes: Any) -> "RunOptions":
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class TraceArtifacts:
    """Serialized tracing output of one run (picklable, deterministic)."""

    #: Finished traces collected by the sampler.
    traced_requests: int
    #: Deterministic JSON-lines dump of the span trees.
    jsonl: str = field(repr=False)
    #: Per-class critical-path attribution one-liners.
    summary: str


@dataclass
class DeploymentResult:
    """Outcome of one managed deployment run.

    Plain data end to end -- picklable so results can be returned from
    worker processes by :func:`repro.experiments.parallel.run_many`.
    """

    app_name: str
    manager: str
    load_name: str
    windowed_violation_rate: float
    mean_cpu_allocation: float
    per_class_violation_rate: dict[str, float]
    completed_requests: int
    wall_seconds: float
    #: Scale-ups refused by a capacity-capped cluster
    #: (:class:`ClusterOptions` ``cap_on_full``); > 0 means the run was
    #: capacity-bound, the signal fleet allocators key on.
    capped_scale_ups: int = 0
    metrics: DeploymentMetrics | None = field(repr=False, default=None)
    #: BLAKE2b checksum of the run's full event trace (``digest=True``).
    run_digest: str | None = None
    #: Span trees + critical-path summary (``tracing=`` option).
    traces: TraceArtifacts | None = field(repr=False, default=None)
    #: Alert timeline + budget accounting (``slo=`` option).
    slo: SLOArtifacts | None = field(repr=False, default=None)


@dataclass
class ManagedRun:
    """A deployment started by :func:`start_deployment`, load running.

    ``manager`` is whatever ``attach_manager`` returned; ``digest``,
    ``tracer`` and ``monitor`` are the observers ``RunOptions`` asked
    for (``None`` when off).
    """

    app: Application
    manager: Any
    digest: RunDigest | None
    tracer: Tracer | None
    monitor: SLOMonitor | None

    def run_digest(self) -> str | None:
        """Hex checksum of the event trace so far (``None``: digest off)."""
        return self.digest.hexdigest() if self.digest is not None else None

    def trace_artifacts(self) -> TraceArtifacts | None:
        """The sampled span trees, serialized (``None``: tracing off)."""
        if self.tracer is None:
            return None
        return TraceArtifacts(
            traced_requests=len(self.tracer.finished),
            jsonl=traces_to_jsonl(self.tracer.finished),
            summary=self.tracer.summary().render(),
        )


def start_deployment(
    spec: AppSpec,
    mix: RequestMix,
    pattern,
    attach_manager: Callable[[Application], object],
    options: RunOptions,
    *,
    load_seed: int,
    load_stop_s: float,
) -> ManagedRun:
    """Deploy ``spec``, warm up to 10 s, attach the manager, start load.

    Returns at simulated time 10 with the load generator started on
    ``RandomStreams(load_seed)`` until ``load_stop_s``; the caller runs
    the environment on and takes its own measurements.
    """
    digest = RunDigest() if options.digest else None
    tracer = (
        options.tracing.build_tracer() if options.tracing is not None else None
    )
    app = make_app(
        spec,
        options.seed,
        trace=digest,
        tracer=tracer,
        cluster_options=options.cluster,
    )
    monitor = None
    if options.slo is not None:
        env = app.env
        monitor = options.slo.build_monitor(spec, clock=lambda: env.now)
        monitor.attach(app)
    app.env.run(until=10)
    manager = attach_manager(app)
    LoadGenerator(
        app,
        pattern=pattern,
        mix=mix,
        streams=RandomStreams(load_seed),
        stop_at_s=load_stop_s,
    ).start()
    return ManagedRun(app, manager, digest, tracer, monitor)


def run_deployment(
    spec: AppSpec,
    mix: RequestMix,
    pattern,
    attach_manager: Callable[[Application], object],
    manager_name: str,
    load_name: str,
    options: RunOptions | None = None,
) -> DeploymentResult:
    """One managed deployment run under ``pattern`` with ``mix``.

    Per-run knobs travel in ``options`` (a :class:`RunOptions`).
    ``options.tracing`` samples span trees and returns them (serialized)
    in ``result.traces``; ``options.digest`` checksums the full event
    trace into ``result.run_digest``.  Both are pure observers -- the
    simulated timeline is identical with or without them.  Load runs on
    ``seed + 7`` and stops 30 s before the end, so queues drain.
    """
    options = options if options is not None else RunOptions()
    duration = options.resolved_duration_s()
    measure_from = options.resolved_measure_from_s()
    run = start_deployment(
        spec,
        mix,
        pattern,
        attach_manager,
        options,
        load_seed=options.seed + 7,
        load_stop_s=duration - 30.0,
    )
    app = run.app
    wall_start = time.perf_counter()
    app.env.run(until=duration)
    wall = time.perf_counter() - wall_start
    latency_by_class = {
        rc.name: FixedHistogram.from_samples(
            app.hub.latency_distribution(
                "request_latency", measure_from, duration, {"request": rc.name}
            ).samples()
        )
        for rc in spec.request_classes
    }
    metrics = DeploymentMetrics(
        measure_from_s=measure_from,
        duration_s=duration,
        latency_by_class=latency_by_class,
        cpu_by_service={
            name: app.hub.gauge_mean(
                "cpu_allocated", measure_from, duration,
                {"service": name}, default=0.0,
            )
            for name in app.services
        },
        final_replicas={name: app.replicas(name) for name in app.services},
    )
    slo_artifacts = None
    if run.monitor is not None:
        slo_artifacts = SLOArtifacts(
            alert_transitions=len(run.monitor.alerts),
            alerts_jsonl=run.monitor.alerts_jsonl(),
            budget_report=run.monitor.budget_report(),
        )
    return DeploymentResult(
        app_name=spec.name,
        manager=manager_name,
        load_name=load_name,
        windowed_violation_rate=app.windowed_violation_rate(measure_from, duration),
        mean_cpu_allocation=app.mean_cpu_allocation(measure_from, duration),
        per_class_violation_rate=app.per_class_violation_rate(
            measure_from, duration
        ),
        completed_requests=sum(d.count for d in latency_by_class.values()),
        wall_seconds=wall,
        capped_scale_ups=app.cluster.capped_scale_ups(),
        metrics=metrics,
        run_digest=run.run_digest(),
        traces=run.trace_artifacts(),
        slo=slo_artifacts,
    )
