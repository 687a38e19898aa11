"""Application topologies: request classes, SLAs, and the runtime wiring.

An :class:`AppSpec` is the static description of a benchmark application:
its microservices, and its request classes -- each a call tree with an SLA
(percentile + target latency, Tables II-IV) and a priority.  An
:class:`Application` instantiates the spec on a simulated cluster and is
the object workload generators and resource managers interact with.
Its constructor stands a spec up on a fresh environment, cluster and
metrics hub -- the one way every simulated run in ``repro`` deploys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.cluster.cluster import Cluster, ClusterOptions
from repro.errors import ConfigurationError, TopologyError
from repro.net.messages import Call, CallMode, Request
from repro.services.base import UTILIZATION_SAMPLE_INTERVAL_S, Microservice
from repro.services.spec import ServiceSpec
from repro.sim.engine import Environment, Event
from repro.sim.random import RandomStreams
from repro.telemetry.metrics import CounterHandle, LatencyHandle, MetricsHub
from repro.telemetry.tracing import Tracer

__all__ = ["SlaSpec", "RequestClass", "AppSpec", "Application"]


@dataclass(frozen=True)
class SlaSpec:
    """An SLA: the ``percentile``-th latency must stay below ``target_s``."""

    percentile: float
    target_s: float

    def __post_init__(self) -> None:
        if not 0 < self.percentile < 100:
            raise ConfigurationError(
                f"SLA percentile must be in (0, 100), got {self.percentile}"
            )
        if self.target_s <= 0:
            raise ConfigurationError(f"SLA target must be > 0, got {self.target_s}")


@dataclass(frozen=True)
class RequestClass:
    """One class (or priority level) of user requests."""

    name: str
    tree: Call
    sla: SlaSpec
    priority: int = 0

    def services(self) -> list[str]:
        """Unique services on this class's path, preorder."""
        seen: list[str] = []
        for name in self.tree.services():
            if name not in seen:
                seen.append(name)
        return seen

    def access_counts(self) -> dict[str, int]:
        """Accesses per request for each service on this class's path.

        A service called ``repeat`` times by a parent that is itself called
        multiple times accumulates multiplicatively; §IV treats the
        cumulative latency of all accesses as that service's latency.
        """
        counts: dict[str, int] = {}

        def walk(call: Call, multiplier: int) -> None:
            times = multiplier * call.repeat
            counts[call.service] = counts.get(call.service, 0) + times
            for child in call.children:
                walk(child, times)

        walk(self.tree, 1)
        return counts


@dataclass(frozen=True)
class AppSpec:
    """Static description of a benchmark application."""

    name: str
    services: tuple[ServiceSpec, ...]
    request_classes: tuple[RequestClass, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "services", tuple(self.services))
        object.__setattr__(self, "request_classes", tuple(self.request_classes))
        specs = {s.name for s in self.services}
        if len(specs) != len(self.services):
            raise ConfigurationError(f"{self.name}: duplicate service names")
        class_names = {c.name for c in self.request_classes}
        if len(class_names) != len(self.request_classes):
            raise ConfigurationError(f"{self.name}: duplicate request classes")
        by_name = {s.name: s for s in self.services}
        for rc in self.request_classes:
            for call in rc.tree.walk():
                if call.service not in specs:
                    raise TopologyError(
                        f"{self.name}: class {rc.name!r} references unknown "
                        f"service {call.service!r}"
                    )
                if rc.name not in by_name[call.service].handlers:
                    raise TopologyError(
                        f"{self.name}: service {call.service!r} lacks a handler "
                        f"for request class {rc.name!r}"
                    )

    def service(self, name: str) -> ServiceSpec:
        for spec in self.services:
            if spec.name == name:
                return spec
        raise TopologyError(f"{self.name}: unknown service {name!r}")

    def request_class(self, name: str) -> RequestClass:
        for rc in self.request_classes:
            if rc.name == name:
                return rc
        raise TopologyError(f"{self.name}: unknown request class {name!r}")

    def rpc_called_services(self) -> tuple[str, ...]:
        """Services invoked via RPC or event-driven RPC somewhere, sorted.

        Only these need backpressure-free threshold profiling (§III): a
        service consumed exclusively through message queues cannot inflate
        any caller's latency.  Roots of non-MQ classes count (the client
        calls them synchronously).  Returned sorted so callers may iterate
        it directly without tripping SIM003 (set iteration order is
        run-dependent under hash salting).
        """
        called: set[str] = set()
        for rc in self.request_classes:
            if rc.tree.mode != CallMode.MQ:
                called.add(rc.tree.service)
            for call in rc.tree.walk():
                for child in call.children:
                    if child.mode in (CallMode.RPC, CallMode.EVENT):
                        called.add(child.service)
        return tuple(sorted(called))

    def with_service(self, spec: ServiceSpec) -> "AppSpec":
        """A copy with one service spec replaced (§VII-G logic updates)."""
        services = tuple(spec if s.name == spec.name else s for s in self.services)
        if spec.name not in {s.name for s in self.services}:
            raise TopologyError(f"{self.name}: unknown service {spec.name!r}")
        return AppSpec(self.name, services, self.request_classes)


class Application:
    """A running application: services deployed on a fresh cluster.

    This is the facade everything else uses:

    * workload generators call :meth:`submit`;
    * resource managers call :meth:`scale` / :meth:`replicas` and read the
      metrics hub;
    * experiments read :attr:`hub` for latency/violation/allocation series
      and may pass a :class:`~repro.telemetry.tracing.Tracer` to collect
      span trees for sampled requests.

    The constructor builds the environment, cluster, metrics hub and
    random streams itself; it is the one way a simulated deployment is
    stood up.  ``seed`` seeds the application's :class:`RandomStreams`
    (``Application(spec, streams.fork(salt).seed)`` draws from the same
    generator as ``streams.fork(salt)``).  ``trace`` is the engine-level
    event hook (e.g. a :class:`~repro.sim.trace.RunDigest`); ``tracer``
    the request-level span sampler.  ``cluster_options`` reshapes the
    cluster (node count, node size, capacity capping; default: 8 nodes
    of 96 CPUs) -- the knob fleet cells use to enforce a per-tenant node
    budget.  ``window_s`` is the metrics hub's aggregation window;
    profiling runs match it to their sampling window so per-sample
    distributions and rates are exact.
    """

    def __init__(
        self,
        spec: AppSpec,
        seed: int,
        *,
        initial_replicas: Mapping[str, int] | int = 2,
        trace: Callable | None = None,
        tracer: Tracer | None = None,
        cluster_options: ClusterOptions | None = None,
        window_s: float = 60.0,
    ) -> None:
        if cluster_options is None:
            cluster_options = ClusterOptions()
        self.spec = spec
        self.env = Environment(trace=trace)
        self.cluster = Cluster(
            self.env,
            nodes=cluster_options.build_nodes(),
            cap_on_full=cluster_options.cap_on_full,
        )
        self.hub = MetricsHub(self.env.clock(), window_s=window_s)
        self.streams = RandomStreams(seed)
        self.services: dict[str, Microservice] = {}
        for svc_spec in spec.services:
            if isinstance(initial_replicas, int):
                replicas = initial_replicas
            else:
                replicas = initial_replicas.get(svc_spec.name, 2)
            self.services[svc_spec.name] = Microservice(
                env=self.env,
                spec=svc_spec,
                cluster=self.cluster,
                hub=self.hub,
                streams=self.streams,
                initial_replicas=replicas,
            )
        # Wire peers: every service can reach every other (the mesh).
        for service in self.services.values():
            service.peers = self.services
        self.request_classes: dict[str, RequestClass] = {
            rc.name: rc for rc in spec.request_classes
        }
        #: request class -> interned (client_requests_total,
        #: request_latency) writers.
        self._class_handles: dict[str, tuple[CounterHandle, LatencyHandle]] = {
            name: (
                self.hub.counter_handle("client_requests_total", {"request": name}),
                self.hub.latency_handle("request_latency", {"request": name}),
            )
            for name in self.request_classes
        }
        #: Per-application request counter: ids are deterministic within
        #: a run and identical at any --jobs count (no process-global
        #: state; see PAR002 in docs/static_analysis.md).
        self._submitted = 0
        self.tracer = tracer
        #: Pure-observer completion subscribers called as
        #: ``fn(request, request_class, latency)`` from `_on_complete`
        #: (inside an already-scheduled event's callback -- subscribing
        #: never adds engine events, so the run digest is unchanged).
        self._completion_listeners: list = []
        self.env.process(self._cluster_monitor())

    def add_completion_listener(self, fn) -> None:
        """Subscribe ``fn(request, request_class, latency)`` to completions.

        Listeners are observers: they run inside the completion event's
        existing callback chain, synchronously at the completion, and must
        not schedule engine events (``Environment(trace=...)`` hooks obey
        the same rule, but see rows in buffers rather than as they fire).
        """
        self._completion_listeners.append(fn)

    # -- workload entry -----------------------------------------------------
    def submit(self, class_name: str) -> tuple[Request, Event]:
        """Inject one request; returns (request, completion event).

        End-to-end latency is recorded on the hub when the request's call
        tree completes.
        """
        rc = self.request_classes.get(class_name)
        if rc is None:
            raise TopologyError(f"unknown request class {class_name!r}")
        request = Request(
            request_class=class_name,
            arrival_time=self.env.now,
            priority=rc.priority,
            request_id=self._submitted,
        )
        self._submitted += 1
        root = self.services[rc.tree.service]
        span = (
            self.tracer.begin(
                request,
                rc.tree.service,
                "mq" if rc.tree.mode == CallMode.MQ else "rpc",
            )
            if self.tracer is not None
            else None
        )
        if rc.tree.mode == CallMode.MQ:
            done = root.publish(request, rc.tree, span=span)
        else:
            _response, done = root.submit(request, rc.tree, span=span)
        requests_total, latency_handle = self._class_handles[class_name]
        requests_total.inc()
        done._add_callback(
            lambda _ev: self._on_complete(request, rc, latency_handle, span)
        )
        return request, done

    def _on_complete(
        self,
        request: Request,
        rc: RequestClass,
        latency_handle: LatencyHandle,
        span=None,
    ) -> None:
        request.completion_time = self.env.now
        latency = request.latency
        latency_handle.record(latency)
        if span is not None:
            self.tracer.finish(span.trace, self.env.now)
        if self._completion_listeners:
            for listener in self._completion_listeners:
                listener(request, rc, latency)

    # -- control plane -------------------------------------------------------
    def scale(self, service: str, replicas: int) -> None:
        self._service(service).scale_to(replicas)

    def replicas(self, service: str) -> int:
        return self._service(service).replicas

    def allocated_cpus(self, service: str | None = None) -> int:
        if service is not None:
            return self._service(service).allocated_cpus
        return sum(s.allocated_cpus for s in self.services.values())

    def _service(self, name: str) -> Microservice:
        try:
            return self.services[name]
        except KeyError:
            raise TopologyError(f"unknown service {name!r}") from None

    def _cluster_monitor(self):
        """Sample cluster-wide allocation gauges (pure observer process)."""
        env = self.env
        allocated = self.hub.gauge_handle("cluster_allocated_cpus")
        free = self.hub.gauge_handle("cluster_free_cpus")
        while True:
            yield env.timeout(UTILIZATION_SAMPLE_INTERVAL_S)
            allocated.observe(float(self.cluster.allocated_cpus()))
            free.observe(float(self.cluster.free_cpus()))

    # -- accounting helpers ---------------------------------------------------
    def windowed_violation_rate(
        self, t0: float, t1: float, window_s: float = 60.0
    ) -> float:
        """SLA violation rate as the paper reports it.

        For each request class and each ``window_s`` evaluation window in
        ``[t0, t1)``, the class's SLA percentile is computed over the
        window's completed requests and checked against its target.  The
        violation rate is the fraction of failed checks.  This definition
        works for any SLA percentile (the video pipeline's low-priority SLA
        is on the median, where a per-request count would be meaningless).
        """
        checks = 0
        failures = 0
        t = t0
        while t < t1:
            t_next = min(t1, t + window_s)
            for rc in self.spec.request_classes:
                dist = self.hub.latency_distribution(
                    "request_latency", t, t_next, {"request": rc.name}
                )
                if dist:
                    checks += 1
                    if dist.percentile(rc.sla.percentile) > rc.sla.target_s:
                        failures += 1
            t = t_next
        if checks == 0:
            return 0.0
        return failures / checks

    def sla_violation_rate(self, t0: float, t1: float) -> float:
        """Overall fraction of completed requests violating their SLA.

        Computed from completed-request latencies recorded in ``[t0, t1)``
        across all request classes.
        """
        violations = 0.0
        completed = 0
        for rc in self.spec.request_classes:
            labels = {"request": rc.name}
            dist = self.hub.latency_distribution("request_latency", t0, t1, labels)
            if dist:
                completed += dist.count
                violations += dist.fraction_above(rc.sla.target_s) * dist.count
        if completed == 0:
            return 0.0
        return violations / completed

    def per_class_violation_rate(self, t0: float, t1: float) -> dict[str, float]:
        """Per-request-class SLA violation rates over ``[t0, t1)``."""
        rates: dict[str, float] = {}
        for rc in self.spec.request_classes:
            dist = self.hub.latency_distribution(
                "request_latency", t0, t1, {"request": rc.name}
            )
            rates[rc.name] = dist.fraction_above(rc.sla.target_s) if dist else 0.0
        return rates

    def mean_cpu_allocation(self, t0: float, t1: float) -> float:
        """Average total CPUs allocated to the app over ``[t0, t1)``."""
        total = 0.0
        for name in self.services:
            total += self.hub.gauge_mean(
                "cpu_allocated", t0, t1, {"service": name}, default=0.0
            )
        return total

