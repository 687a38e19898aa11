"""Allocation-space exploration: Algorithm 1 of the paper.

Each microservice is explored *individually* on a fresh deployment of its
application, started by :func:`start_profiling_run` (the protocol the
Sinan and Firm training runs share): every service is provisioned
generously by :func:`provisioning_for` on the default testbed under
constant load, and the profiled service's replica count is then reduced
step by step.  At each step the controller collects a fixed number of
one-window samples (the paper samples once per minute) recording

* the per-replica load of each request class at the service (the LPR
  vector candidate),
* the service's per-class latency percentile rows (a row of ``D_i^j``),
* the service's CPU utilisation, and
* the end-to-end SLA-violation frequency of the application.

Exploration stops -- *without* recording the current step -- as soon as
the SLA-violation frequency reaches ``F_sla`` or the utilisation crosses
the service's backpressure-free threshold, preserving the independence
assumption of the performance model.  Because services are explored
independently, the wall-clock exploration time of an application is the
*maximum* over its services, while the sample budget is the sum
(Table V's accounting).

Digests follow the same independence.  With ``digest=True`` every
service's exploration runs under its own
:class:`~repro.sim.trace.RunDigest`, stored on
:attr:`ServiceProfile.trace_digest`; the application's
:attr:`ExplorationResult.trace_digest` is
:func:`~repro.sim.trace.combine_digests` over those per-service values.
It is therefore the same whether the services were explored one after
another (:meth:`ExplorationController.explore_app`) or one per pool
worker (:func:`repro.experiments.artifacts.explore_services`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.apps.topology import Application, AppSpec
from repro.errors import ExplorationError
from repro.sim.random import RandomStreams
from repro.sim.trace import RunDigest, combine_digests
from repro.stats.distributions import DEFAULT_PERCENTILE_GRID
from repro.workload.generator import BATCH_CANDIDATES, LoadGenerator
from repro.workload.mixes import RequestMix
from repro.workload.patterns import ConstantLoad

__all__ = [
    "LprOption",
    "ServiceProfile",
    "ExplorationResult",
    "ExplorationController",
    "provisioning_for",
    "start_profiling_run",
]

#: Algorithm 1's ``F_sla``: a step whose share of SLA-violating windows
#: reaches this ends the exploration (or, before any LPR option was
#: recorded, escalates the provisioning).
F_SLA = 0.10

#: If the SLA is violated before any LPR option was recorded, the initial
#: provisioning was not "adequate CPUs to keep latency low"; the profiled
#: service's replicas are escalated and the step retried, at most this
#: many times.
MAX_ESCALATIONS = 3

#: When the profiled service reaches 1 replica without violating, the
#: workload trace is replayed hotter -- its rate multiplied by
#: ``PROBE_GROWTH`` per step -- so exploration still finds the service's
#: true SLA-bounded capacity.
PROBE_GROWTH = 1.3

#: Probe intensity ceiling (within the generator's ``MAX_MULTIPLIER``):
#: bounds per-service exploration time at the cost of capping the
#: discoverable LPR range.
PROBE_MAX_MULTIPLIER = 2.2


@dataclass
class LprOption:
    """One recorded load-per-replica threshold candidate."""

    replicas: int
    #: class -> mean service-level load per replica (requests/second).
    lpr: dict[str, float]
    #: class -> per-window per-replica load samples (for the t-test scaler).
    load_samples: dict[str, list[float]]
    #: class -> latency percentiles on the grid (per access).
    latency_rows: dict[str, list[float]]
    utilization: float

    def max_lpr(self) -> float:
        return max(self.lpr.values()) if self.lpr else 0.0


@dataclass
class ServiceProfile:
    """Exploration output for one service (the map of Algorithm 1)."""

    service: str
    cpus_per_replica: int
    #: Options in exploration order: descending replicas = ascending LPR.
    options: list[LprOption]
    samples_collected: int
    profiling_time_s: float
    terminated_by: str  # "sla" | "backpressure" | "min_replicas"
    #: Hex event-trace digest of this service's exploration environment
    #: (``explore_service(..., digest=True)``); ``None`` when untraced.
    trace_digest: str | None = None

    def __post_init__(self) -> None:
        if not self.options:
            raise ExplorationError(
                f"exploration of {self.service!r} recorded no feasible LPR "
                f"option (initial provisioning already violates its SLA?)"
            )


@dataclass
class ExplorationResult:
    """Exploration output for a whole application."""

    app_name: str
    profiles: dict[str, ServiceProfile]
    #: :func:`~repro.sim.trace.combine_digests` over the per-service
    #: :attr:`ServiceProfile.trace_digest` values (one ``"<service>:<hex>"``
    #: line each, in service-name order), so it does not depend on where or
    #: in which order the services were explored.  ``None`` unless every
    #: service carries a digest.
    trace_digest: str | None = field(init=False)
    #: Sum of samples over all services (Table V "Samples").
    total_samples: int = field(init=False)
    #: Max profiling time over services -- they are explored independently
    #: and can run in parallel (Table V "Time").
    exploration_time_s: float = field(init=False)

    def __post_init__(self) -> None:
        self.total_samples = sum(p.samples_collected for p in self.profiles.values())
        self.exploration_time_s = max(
            (p.profiling_time_s for p in self.profiles.values()), default=0.0
        )
        digests = {name: p.trace_digest for name, p in self.profiles.items()}
        self.trace_digest = (
            combine_digests(digests)
            if digests and None not in digests.values()
            else None
        )


def provisioning_for(
    spec: AppSpec,
    mix: RequestMix,
    rps: float,
    target_utilization: float = 0.35,
    headroom_replicas: int = 1,
) -> dict[str, int]:
    """Generous replica counts: enough to keep every service comfortable.

    Uses handler means and per-class access counts to estimate each
    service's CPU demand at ``rps``, then provisions for
    ``target_utilization``.
    """
    if rps <= 0:
        raise ExplorationError(f"rps must be > 0, got {rps}")
    access: dict[str, dict[str, float]] = {}
    for rc in spec.request_classes:
        for service, count in rc.access_counts().items():
            access.setdefault(service, {})[rc.name] = float(count)
    replicas: dict[str, int] = {}
    for service in spec.services:
        demand = 0.0
        for class_name, count in access.get(service.name, {}).items():
            work = service.handlers.get(class_name)
            if work is None:
                continue
            demand += rps * mix.fraction(class_name) * count * work.mean
        cores = service.cpus_per_replica
        needed = demand / (cores * target_utilization) if demand > 0 else 0.0
        replicas[service.name] = max(1, math.ceil(needed) + headroom_replicas)
    return replicas


def start_profiling_run(
    spec: AppSpec,
    mix: RequestMix,
    rps: float,
    streams: RandomStreams,
    seed_salt: int,
    *,
    window_s: float,
    warmup_s: float,
    trace: Callable | None = None,
    batch_candidates: int = BATCH_CANDIDATES,
) -> tuple[Application, LoadGenerator, dict[str, int]]:
    """Deploy ``spec`` generously provisioned, under constant load, warmed up.

    The protocol Algorithm 1 and the ML baselines' training runs share:
    :func:`provisioning_for` replicas on the default testbed with
    ``streams.fork(seed_salt)``, ``ConstantLoad(rps)`` from time 0 on
    ``streams.fork(seed_salt + 1)``, then a run to ``warmup_s``.  The
    metrics hub aggregates over ``window_s``, the caller's sampling
    window, so per-sample latency distributions and rates are exact.
    Returns the application, its started load generator, and the
    provisioning.
    """
    provisioning = provisioning_for(spec, mix, rps)
    app = Application(
        spec,
        streams.fork(seed_salt).seed,
        initial_replicas=provisioning,
        trace=trace,
        window_s=window_s,
    )
    generator = LoadGenerator(
        app,
        pattern=ConstantLoad(rps),
        mix=mix,
        streams=streams.fork(seed_salt + 1),
        batch_candidates=batch_candidates,
    )
    generator.start()
    app.env.run(until=warmup_s)
    return app, generator, provisioning


class ExplorationController:
    """Runs Algorithm 1 for each service of an application."""

    def __init__(
        self,
        streams: RandomStreams,
        window_s: float = 60.0,
        samples_per_step: int = 10,
        warmup_s: float = 60.0,
        settle_s: float = 30.0,
        min_window_samples: int = 30,
    ) -> None:
        if samples_per_step < 1:
            raise ExplorationError("need >= 1 sample per step")
        self.streams = streams
        self.window_s = float(window_s)
        self.samples_per_step = int(samples_per_step)
        self.warmup_s = float(warmup_s)
        self.settle_s = float(settle_s)
        #: Windows with fewer completed requests of a class than this do
        #: not evaluate that class's SLA (a p99 of a handful of samples is
        #: just the maximum and would trigger spurious terminations).
        self.min_window_samples = int(min_window_samples)

    # ------------------------------------------------------------------
    def explore_app(
        self,
        spec: AppSpec,
        mix: RequestMix,
        rps: float,
        backpressure_thresholds: Mapping[str, float],
        services: Sequence[str] | None = None,
        seed_salt: int = 0,
        digest: bool = False,
    ) -> ExplorationResult:
        """Explore every service (or the given subset) of ``spec``.

        Services are explored one after another; each is independent of
        the others (salt ``seed_salt * 1000 + k`` for the ``k``-th), so
        running them elsewhere with the same salts gives the same result.
        ``digest=True`` digests each service separately (see
        :attr:`ExplorationResult.trace_digest`).
        """
        names = list(services) if services is not None else [
            s.name for s in spec.services
        ]
        profiles: dict[str, ServiceProfile] = {}
        for k, name in enumerate(names):
            profiles[name] = self.explore_service(
                spec,
                name,
                mix,
                rps,
                backpressure_thresholds.get(name, 1.0),
                seed_salt=seed_salt * 1000 + k,
                digest=digest,
            )
        return ExplorationResult(app_name=spec.name, profiles=profiles)

    def explore_service(
        self,
        spec: AppSpec,
        service_name: str,
        mix: RequestMix,
        rps: float,
        backpressure_threshold: float = 1.0,
        seed_salt: int = 0,
        digest: bool = False,
    ) -> ServiceProfile:
        """Algorithm 1 for one service on a fresh deployment.

        ``digest=True`` fingerprints the run's event trace into
        :attr:`ServiceProfile.trace_digest`.
        """
        service_spec = spec.service(service_name)
        run_digest = RunDigest() if digest else None
        # batch_candidates=1: exploration replays the trace "hotter" by
        # raising the rate multiplier mid-run, which requires the exact
        # per-candidate thinning loop (the batched scan samples the
        # multiplier only at wake time).
        app, generator, provisioning = start_profiling_run(
            spec,
            mix,
            rps,
            self.streams,
            seed_salt,
            window_s=self.window_s,
            warmup_s=self.warmup_s,
            trace=run_digest,
            batch_candidates=1,
        )
        env = app.env

        # Classes that actually touch the profiled service.
        touched = [
            rc for rc in spec.request_classes
            if service_name in rc.access_counts() and mix.fraction(rc.name) > 0
        ]
        if not touched:
            raise ExplorationError(
                f"service {service_name!r} receives no load under this mix"
            )

        options: list[LprOption] = []
        samples = 0
        replicas = provisioning[service_name]
        escalations = 0
        terminated_by = "min_replicas"
        t_start = env.now

        while replicas > 0:
            # -- one step: collect samples_per_step one-window samples ----
            per_class_rates: dict[str, list[float]] = {rc.name: [] for rc in touched}
            violated_windows = 0
            util_sum = 0.0
            step_t0 = env.now
            for _ in range(self.samples_per_step):
                w0 = env.now
                env.run(until=w0 + self.window_s)
                samples += 1
                window_violated = False
                for rc in spec.request_classes:
                    dist = app.hub.latency_distribution(
                        "request_latency", w0, env.now, {"request": rc.name}
                    )
                    if (
                        dist
                        and dist.count >= self.min_window_samples
                        and dist.percentile(rc.sla.percentile) > rc.sla.target_s
                    ):
                        window_violated = True
                if window_violated:
                    violated_windows += 1
                for rc in touched:
                    rate = app.hub.counter_rate(
                        "requests_total",
                        w0,
                        env.now,
                        {"service": service_name, "request": rc.name},
                    )
                    per_class_rates[rc.name].append(rate)
                util_sum += app.hub.gauge_mean(
                    "cpu_utilization", w0, env.now, {"service": service_name},
                    default=0.0,
                )
            utilization = util_sum / self.samples_per_step
            f_sla = violated_windows / self.samples_per_step

            # -- Algorithm 1's termination checks (do not record this step)
            if f_sla >= F_SLA and not options:
                # Violations before any feasible option were recorded: the
                # initial provisioning was inadequate -- escalate and retry.
                if escalations >= MAX_ESCALATIONS:
                    terminated_by = "sla"
                    break
                escalations += 1
                replicas += 1
                app.scale(service_name, replicas)
                env.run(until=env.now + self.settle_s)
                continue
            if utilization >= backpressure_threshold:
                terminated_by = "backpressure"
                break
            if f_sla >= F_SLA:
                terminated_by = "sla"
                break

            # -- record the LPR option -----------------------------------
            latency_rows: dict[str, list[float]] = {}
            usable = True
            for rc in touched:
                dist = app.hub.latency_distribution(
                    "service_latency",
                    step_t0,
                    env.now,
                    {"service": service_name, "request": rc.name},
                )
                if not dist:
                    usable = False
                    break
                latency_rows[rc.name] = dist.percentiles(DEFAULT_PERCENTILE_GRID)
            if usable:
                options.append(
                    LprOption(
                        replicas=replicas,
                        lpr={
                            name: sum(rates) / len(rates) / replicas
                            for name, rates in per_class_rates.items()
                        },
                        load_samples={
                            name: [r / replicas for r in rates]
                            for name, rates in per_class_rates.items()
                        },
                        latency_rows=latency_rows,
                        utilization=utilization,
                    )
                )

            if replicas > 1:
                replicas -= 1
                app.scale(service_name, replicas)
            else:
                # One replica and still no violation: the base trace cannot
                # push the per-replica load higher by removing replicas.
                # Replay the trace hotter to keep probing LPR candidates,
                # until the SLA/backpressure stop fires or the probe budget
                # runs out.
                next_multiplier = generator.rate_multiplier * PROBE_GROWTH
                if next_multiplier > PROBE_MAX_MULTIPLIER:
                    terminated_by = "min_replicas"
                    break
                generator.set_rate_multiplier(next_multiplier)
                # Keep every *other* service generously provisioned under
                # the hotter trace so the profiled service stays the only
                # bottleneck candidate.
                for other, base_replicas in provisioning.items():
                    if other != service_name:
                        app.scale(other, math.ceil(base_replicas * next_multiplier))
            env.run(until=env.now + self.settle_s)

        return ServiceProfile(
            service=service_name,
            cpus_per_replica=service_spec.cpus_per_replica,
            options=options,
            samples_collected=samples,
            profiling_time_s=env.now - t_start,
            terminated_by=terminated_by,
            trace_digest=run_digest.hexdigest() if run_digest else None,
        )

