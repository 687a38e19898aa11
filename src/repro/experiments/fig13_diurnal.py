"""Fig. 13 -- Ursa's CPU allocation tracking a diurnal load.

Runs the social network under Ursa with a diurnal pattern and records,
for representative microservices, the per-window RPS at the service and
the CPUs allocated to it.  The paper's shape: allocations scale out as the
load ramps up and scale back in as it subsides, promptly, per service.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments import artifacts
from repro.experiments.managers import attach_ursa
from repro.experiments.parallel import RunPlan, run_many
from repro.experiments.report import render_series
from repro.experiments.runner import RunOptions, scale_profile, start_deployment
from repro.experiments.store import RunMeta
from repro.workload.defaults import default_mix_for
from repro.workload.patterns import DiurnalLoad

__all__ = [
    "DiurnalTrace",
    "run_diurnal_trace",
    "FIG13_SERVICES",
    "experiment_meta",
]

#: Default seed for the single diurnal deployment.
FIG13_SEED = 29

#: Four representative social-network microservices (paper Fig. 13 shows
#: individual, representative services).
FIG13_SERVICES = (
    "frontend",
    "timeline-service",
    "post-storage",
    "object-detect-ml",
)


@dataclass
class ServiceTrace:
    service: str
    #: (window start, service RPS) and (window start, allocated CPUs).
    load: list[tuple[float, float]]
    cpus: list[tuple[float, float]]

    def render(self) -> str:
        return "\n".join(
            [
                render_series(f"{self.service} load", self.load, "t_s", "rps"),
                render_series(f"{self.service} cpus", self.cpus, "t_s", "cpus"),
            ]
        )

    def correlation(self) -> float:
        """Pearson correlation between load and allocation over time."""
        import numpy as np

        if len(self.load) < 3:
            return float("nan")
        x = np.asarray([v for _, v in self.load])
        y = np.asarray([v for _, v in self.cpus])
        if x.std() == 0 or y.std() == 0:
            return 0.0
        return float(np.corrcoef(x, y)[0, 1])


@dataclass
class DiurnalTrace:
    traces: dict[str, ServiceTrace]
    #: Event-trace checksum of the deployment (``digest=True``).
    run_digest: str | None = None

    def render(self) -> str:
        return "\n\n".join(t.render() for t in self.traces.values())


def run_diurnal_trace(
    app_name: str = "social-network",
    services: tuple[str, ...] = FIG13_SERVICES,
    window_s: float = 60.0,
    options: RunOptions | None = None,
    jobs: int | None = None,
    on_complete=None,
) -> DiurnalTrace:
    """Fig. 13 trace; a single deployment dispatched via ``run_many``.

    Per-run knobs travel in ``options``; the default keeps the
    historical seed and event-trace digest.  There is only one run, so
    ``jobs`` cannot speed it up -- routing it through the parallel layer
    keeps the CLI uniform (every experiment accepts ``--jobs``) and
    exercises the picklability of the trace.
    """
    options = (
        options if options is not None
        else RunOptions(seed=FIG13_SEED, digest=True)
    )
    plan = RunPlan(
        _diurnal_cell,
        {
            "app_name": app_name,
            "services": services,
            "window_s": window_s,
            "options": options,
        },
        label=f"fig13:{app_name}",
    )
    return run_many([plan], jobs=jobs, on_complete=on_complete)[0]


def _diurnal_cell(
    app_name: str,
    services: tuple[str, ...],
    window_s: float,
    options: RunOptions,
) -> DiurnalTrace:
    """The diurnal deployment and its per-window load/CPU series.

    Started by :func:`~repro.experiments.runner.start_deployment`: Ursa
    initialised for the trough load (``0.7 x`` the app's RPS), diurnal
    load on ``seed + 1`` until the end of the run.
    """
    # The diurnal run is deliberately longer than a plain deployment so
    # a full load period fits; an explicit duration_s still wins.
    duration = (
        options.duration_s
        if options.duration_s is not None
        else options.profile().deployment_s * 1.5
    )
    spec = artifacts.app_spec(app_name)
    mix = default_mix_for(app_name)
    rps = artifacts.app_rps(app_name)
    run = start_deployment(
        spec,
        mix,
        DiurnalLoad(low=rps * 0.7, high=rps * 1.8, period_s=duration),
        attach_ursa(
            artifacts.exploration_result(app_name), mix.class_loads(rps * 0.7)
        ),
        options,
        load_seed=options.seed + 1,
        load_stop_s=duration,
    )
    app = run.app
    app.env.run(until=duration)

    traces = {}
    for service in services:
        if service not in app.services:
            continue
        load_series = []
        cpu_series = []
        t = 0.0
        while t + window_s <= duration:
            total_rps = 0.0
            for rc in spec.request_classes:
                total_rps += app.hub.counter_rate(
                    "requests_total",
                    t,
                    t + window_s,
                    {"service": service, "request": rc.name},
                )
            load_series.append((t, total_rps))
            cpu_series.append(
                (
                    t,
                    app.hub.gauge_mean(
                        "cpu_allocated",
                        t,
                        t + window_s,
                        {"service": service},
                        default=0.0,
                    ),
                )
            )
            t += window_s
        traces[service] = ServiceTrace(service, load_series, cpu_series)
    return DiurnalTrace(traces=traces, run_digest=run.run_digest())


def experiment_meta(
    trace: DiurnalTrace,
    app_name: str = "social-network",
    seed: int = FIG13_SEED,
) -> RunMeta:
    """Provenance sidecar for the Fig. 13 output (one diurnal run)."""
    digests = {}
    if trace.run_digest is not None:
        digests[app_name] = trace.run_digest
    return RunMeta(
        experiment="fig13",
        scale=scale_profile().name,
        seeds={app_name: seed},
        digests=digests,
        summaries={
            name: {"load_cpu_correlation": round(t.correlation(), 9)}
            for name, t in trace.traces.items()
            if len(t.cpus) >= 3
        },
    )
