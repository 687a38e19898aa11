"""Fig. 4 -- backpressure-free threshold profiling curves.

Profiles the two services the paper shows -- the *post* service (querying
post contents) and the *timeline-read* service (querying timeline post
IDs) -- with the Fig. 3 engine, and reports the full curve: proxy p99
mean +- std, tested-service p99, and CPU utilisation per CPU limit, plus
the recorded threshold.  Paper values: 46.2 % (post) and 60.0 %
(timeline-read); the reproduction should land in the same 40-70 % band,
with the proxy latency having risen >5x under significant backpressure.

Each service is profiled by its own :class:`RunPlan` (every measurement
environment forks its streams from a salt of the service name and CPU
limit), so ``--jobs`` changes where the ramps run, never their curves
or digests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.backpressure import BackpressureProfile, BackpressureProfiler
from repro.experiments.parallel import RunPlan, run_many
from repro.experiments.report import render_table
from repro.experiments.runner import scale_profile
from repro.experiments.store import RunMeta
from repro.sim.random import LogNormal, RandomStreams
from repro.sim.trace import RunDigest

__all__ = [
    "ThresholdCurves",
    "run_threshold_profiling",
    "PROFILED_SERVICES",
    "experiment_meta",
]

#: Default profiler seed.
FIG4_SEED = 3

#: The two §III case-study services with their handler work models.
PROFILED_SERVICES = {
    "post": LogNormal(0.0050, 0.5),
    "timeline-read": LogNormal(0.0120, 0.6),
}


@dataclass
class ThresholdCurves:
    profiles: dict[str, BackpressureProfile]
    #: service -> hex event-trace digest of its full profiling ramp
    #: (empty when profiling ran with ``digest=False``).
    digests: dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        blocks = []
        for name, profile in self.profiles.items():
            rows = [
                (
                    p.cpu_limit,
                    f"{p.proxy_p99_mean * 1000:.2f}",
                    f"{p.proxy_p99_std * 1000:.2f}",
                    f"{p.tested_p99 * 1000:.2f}",
                    f"{p.utilization:.3f}",
                )
                for p in profile.points
            ]
            blocks.append(
                render_table(
                    ["cpu_limit", "proxy_p99_ms", "std_ms", "tested_p99_ms", "util"],
                    rows,
                    title=(
                        f"Fig.4 {name}: threshold="
                        f"{profile.threshold_utilization:.1%} "
                        f"(converged at limit {profile.converged_cpu_limit})"
                    ),
                )
            )
        return "\n\n".join(blocks)


def _profile_service(
    name: str, max_cpu_limit: int, seed: int, digest: bool
) -> tuple[BackpressureProfile, str | None]:
    """One service's full CPU-limit ramp (a :class:`RunPlan`).

    One digest spans the whole ramp: every per-limit environment feeds
    the same hook.
    """
    profile = scale_profile()
    profiler = BackpressureProfiler(
        RandomStreams(seed),
        window_s=profile.bp_window_s,
        samples_per_limit=profile.bp_samples_per_limit,
    )
    run_digest = RunDigest() if digest else None
    result = profiler.profile(
        name,
        PROFILED_SERVICES[name],
        max_cpu_limit=max_cpu_limit,
        trace=run_digest,
    )
    return result, run_digest.hexdigest() if run_digest is not None else None


def run_threshold_profiling(
    max_cpu_limit: int = 8,
    seed: int = FIG4_SEED,
    digest: bool = True,
    jobs: int | None = None,
    on_complete=None,
) -> ThresholdCurves:
    """Profile every service in :data:`PROFILED_SERVICES`, one plan each
    on ``jobs`` workers (:func:`~repro.experiments.parallel.run_many`
    conventions)."""
    plans = [
        RunPlan(
            _profile_service,
            {
                "name": name,
                "max_cpu_limit": max_cpu_limit,
                "seed": seed,
                "digest": digest,
            },
            label=f"fig04:{name}",
        )
        for name in PROFILED_SERVICES
    ]
    results: dict[str, BackpressureProfile] = {}
    digests: dict[str, str] = {}
    for name, (profile, hexdigest) in zip(
        PROFILED_SERVICES, run_many(plans, jobs=jobs, on_complete=on_complete)
    ):
        results[name] = profile
        if hexdigest is not None:
            digests[name] = hexdigest
    return ThresholdCurves(profiles=results, digests=digests)


def experiment_meta(curves: ThresholdCurves, seed: int = FIG4_SEED) -> RunMeta:
    """Provenance sidecar for the Fig. 4 output.

    The profiler installs the caller's event-trace hook on every
    per-limit measurement environment, so the sidecar pins one
    engine-level digest per profiled service alongside the content hash.
    """
    return RunMeta(
        experiment="fig04",
        scale=scale_profile().name,
        seeds={name: seed for name in curves.profiles},
        digests=dict(curves.digests),
        summaries={
            name: {
                "threshold_utilization": round(p.threshold_utilization, 9),
                "converged_cpu_limit": float(p.converged_cpu_limit),
            }
            for name, p in curves.profiles.items()
        },
    )
