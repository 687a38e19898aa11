"""Backpressure-free CPU-utilisation threshold profiling (§III, Figs. 3-4).

The profiling engine wraps one tested service in the 3-tier harness of
Fig. 3 (client -> proxy -> tested service, nested RPC).  It ramps the
tested service's CPU limit upward while replaying a fixed workload; each
limit is a fresh deployment of
:func:`~repro.apps.profiling_harness.profiling_harness_spec` through
:func:`~repro.apps.topology.make_app` on a two-node 64-CPU cluster, where
it records the proxy's p99 latency (one sample per measurement window)
and the tested service's CPU utilisation.  The proxy latency has
*converged* when Welch's t-test can no longer distinguish the samples
under the last two CPU limits; the tested service's utilisation just
before convergence is its **backpressure-free threshold**: operating below
it, the service cannot inflate its parent's latency.

Operating every service below its threshold is what lets Ursa treat
services as independent (O(N) instead of O(N^2) modelling factors).
"""

from __future__ import annotations

import zlib

from dataclasses import dataclass, field
from typing import Callable

from repro.apps.profiling_harness import PROFILE_CLASS, profiling_harness_spec
from repro.apps.topology import make_app
from repro.cluster.cluster import ClusterOptions
from repro.errors import ExplorationError
from repro.services.spec import ServiceSpec
from repro.sim.engine import Event
from repro.sim.random import Distribution, Mixture, RandomStreams
from repro.stats.ttest import means_differ
from repro.workload.generator import LoadGenerator
from repro.workload.mixes import RequestMix
from repro.workload.patterns import ConstantLoad

__all__ = ["BackpressureProfiler", "BackpressureProfile", "ProfilePoint"]

#: The testbed every per-limit measurement deploys on.
PROFILING_CLUSTER = ClusterOptions(nodes=2, node_cpus=64)

#: The workload is sized to keep this many cores busy, so the ramp always
#: traverses saturation (low limits) into comfort (high limits) regardless
#: of the CPU-limit range.
SATURATION_CPUS = 2.2

#: Practical-equivalence band for converged proxy latencies: a relative
#: tolerance, and an absolute noise floor (differences below it are
#: measurement noise on real systems -- the paper's t-test operates on
#: jittery hardware measurements; the simulator is cleaner).
EQUIVALENCE_REL_TOL = 0.15
EQUIVALENCE_ABS_TOL_S = 0.005


@dataclass(frozen=True)
class ProfilePoint:
    """One CPU-limit step of the profiling curve (one Fig. 4 x-position)."""

    cpu_limit: int
    proxy_p99_samples: tuple[float, ...]
    tested_p99: float
    utilization: float

    @property
    def proxy_p99_mean(self) -> float:
        return sum(self.proxy_p99_samples) / len(self.proxy_p99_samples)

    @property
    def proxy_p99_std(self) -> float:
        mean = self.proxy_p99_mean
        n = len(self.proxy_p99_samples)
        if n < 2:
            return 0.0
        return (sum((x - mean) ** 2 for x in self.proxy_p99_samples) / (n - 1)) ** 0.5


@dataclass
class BackpressureProfile:
    """Result of profiling one service."""

    service: str
    #: CPU utilisation just before proxy-latency convergence (§III).
    threshold_utilization: float
    #: The CPU limit at which the proxy latency converged.
    converged_cpu_limit: int
    points: list[ProfilePoint] = field(default_factory=list)


class BackpressureProfiler:
    """Runs the Fig. 3 profiling procedure for individual services."""

    def __init__(
        self,
        streams: RandomStreams,
        window_s: float = 10.0,
        samples_per_limit: int = 8,
        alpha: float = 0.05,
    ) -> None:
        if samples_per_limit < 2:
            raise ExplorationError("need >= 2 samples per CPU limit for the t-test")
        self.streams = streams
        self.window_s = float(window_s)
        self.samples_per_limit = int(samples_per_limit)
        self.alpha = float(alpha)

    def profile_spec(
        self,
        spec: ServiceSpec,
        mix: RequestMix | None = None,
        max_cpu_limit: int | None = None,
        trace: Callable[[float, int, int, Event], None] | None = None,
    ) -> BackpressureProfile:
        """Profile a service spec, synthesising its aggregate workload.

        ``mix`` weights the service's handler distributions into the
        aggregate request stream (fan-in of multiple upstreams); without a
        mix the handlers are weighted equally.  ``trace`` is installed on
        every measurement environment (see :meth:`profile`).
        """
        if not spec.handlers:
            raise ExplorationError(f"service {spec.name!r} has no handlers")
        components = []
        for class_name, dist in spec.handlers.items():
            weight = mix.fraction(class_name) if mix is not None else 1.0
            if weight > 0:
                components.append((weight, dist))
        if not components:
            raise ExplorationError(
                f"service {spec.name!r}: request mix gives it zero load"
            )
        work = Mixture(components)
        top = max_cpu_limit if max_cpu_limit is not None else max(
            6, spec.cpus_per_replica * 2
        )
        return self.profile(spec.name, work, max_cpu_limit=top, trace=trace)

    def _measure_at_limit(
        self,
        service_name: str,
        work: Distribution,
        cpu_limit: int,
        rps: float,
        trace: Callable[[float, int, int, Event], None] | None = None,
    ) -> ProfilePoint:
        """One CPU-limit step on a fresh harness (no backlog carry-over).

        Load starts only once the replicas are up (at 20 s), then settles
        for one window before the measured windows.
        """
        salt = (zlib.crc32(service_name.encode()) + cpu_limit * 7919) % 2**31
        app = make_app(
            profiling_harness_spec(service_name, work, tested_cpus=cpu_limit),
            self.streams.fork(salt).seed,
            initial_replicas=1,
            trace=trace,
            cluster_options=PROFILING_CLUSTER,
            window_s=self.window_s,
        )
        env = app.env
        env.run(until=20)  # replicas up
        tested = app.services[service_name]
        LoadGenerator(
            app,
            pattern=ConstantLoad(rps),
            mix=RequestMix({PROFILE_CLASS: 1.0}),
            streams=self.streams.fork(salt + 1),
        ).start()
        env.run(until=env.now + self.window_s)  # settle
        proxy_samples = []
        t_measure_start = env.now
        busy_before = sum(r.busy_time for r in tested._replicas.values())
        for _ in range(self.samples_per_limit):
            t0 = env.now
            env.run(until=t0 + self.window_s)
            proxy_samples.append(
                app.hub.latency_percentile(
                    "service_latency",
                    99.0,
                    t0,
                    env.now,
                    {"service": "proxy", "request": PROFILE_CLASS},
                    default=0.0,
                )
            )
        busy_after = sum(r.busy_time for r in tested._replicas.values())
        elapsed = env.now - t_measure_start
        utilization = min(1.0, (busy_after - busy_before) / (cpu_limit * elapsed))
        tested_p99 = app.hub.latency_percentile(
            "service_latency",
            99.0,
            t_measure_start,
            env.now,
            {"service": service_name, "request": PROFILE_CLASS},
            default=0.0,
        )
        return ProfilePoint(
            cpu_limit=cpu_limit,
            proxy_p99_samples=tuple(proxy_samples),
            tested_p99=tested_p99,
            utilization=utilization,
        )

    def profile(
        self,
        service_name: str,
        work: Distribution,
        max_cpu_limit: int = 8,
        trace: Callable[[float, int, int, Event], None] | None = None,
    ) -> BackpressureProfile:
        """Ramp the CPU limit 1..max and find the convergence threshold.

        Convergence requires both (a) Welch's t-test failing to distinguish
        the proxy-latency samples of the last two limits and (b) the tested
        service no longer running saturated -- two fully-saturated steps
        have statistically similar (exploding) latencies but say nothing
        about backpressure-free operation.

        ``trace`` is an engine event-trace hook (see
        :mod:`repro.sim.trace`) installed on every per-limit measurement
        environment, so one hook accumulates the whole profiling ramp --
        e.g. a single :class:`~repro.sim.trace.RunDigest` fingerprints the
        full Fig. 4 curve for a service.
        """
        if max_cpu_limit < 2:
            raise ExplorationError("need >= 2 CPU limits to detect convergence")
        # Size the load to keep ~SATURATION_CPUS cores of work in the
        # system: low CPU limits run saturated, high limits comfortable.
        rps = SATURATION_CPUS / work.mean
        points: list[ProfilePoint] = []
        converged_at: int | None = None
        for cpu_limit in range(1, max_cpu_limit + 1):
            points.append(
                self._measure_at_limit(
                    service_name, work, cpu_limit, rps, trace=trace
                )
            )
            if len(points) >= 2:
                previous, current = points[-2], points[-1]
                # Both points must be past saturation: two saturated steps
                # have similar (exploding) latencies but say nothing about
                # backpressure-free operation, and the threshold is read
                # from the *previous* point.
                saturated = (
                    current.utilization > 0.95 or previous.utilization > 0.98
                )
                distinct = means_differ(
                    list(previous.proxy_p99_samples),
                    list(current.proxy_p99_samples),
                    alpha=self.alpha,
                )
                # Practical-equivalence band: simulated samples are far less
                # noisy than the paper's real measurements, so a tiny (but
                # statistically significant) difference still counts as
                # converged.
                means_close = abs(
                    previous.proxy_p99_mean - current.proxy_p99_mean
                ) <= max(
                    EQUIVALENCE_REL_TOL * current.proxy_p99_mean,
                    EQUIVALENCE_ABS_TOL_S,
                )
                if not saturated and (not distinct or means_close):
                    converged_at = cpu_limit
                    break
        if converged_at is None:
            raise ExplorationError(
                f"proxy latency never converged for {service_name!r} "
                f"(max CPU limit {max_cpu_limit} too low?)"
            )
        # Utilisation just before convergence is the threshold.
        threshold = points[-2].utilization
        return BackpressureProfile(
            service=service_name,
            threshold_utilization=threshold,
            converged_cpu_limit=converged_at,
            points=points,
        )
