"""The microservice runtime: replicas, thread/CPU pools, call semantics.

Each replica models two distinct resources:

* a **thread pool** (``threads_per_cpu`` threads per core) -- a thread is
  held for a request's entire residency at the service, *including* time
  blocked on downstream nested-RPC responses;
* the **CPU** (one slot per core, static policy) -- held only while the
  handler actually executes.

This separation is what reproduces §III's backpressure behaviour:

* **Nested RPC** -- a slow downstream keeps upstream threads blocked;
  once the finite thread pool is exhausted, new requests queue *before*
  getting a thread and upstream response times inflate: backpressure.
  The effect attenuates tier by tier (each pool absorbs part of it),
  matching Fig. 2's "most pronounced in the parent" observation.
* **Event-driven RPC** -- the worker thread hands the downstream call to a
  daemon thread and acknowledges immediately; backpressure appears only
  when the (larger) daemon pool saturates: present but weaker.
* **Message queues** -- producers publish and continue; consumers pull
  when they have capacity.  No producer thread ever waits on a consumer:
  no backpressure.

Metric semantics (matching §III's measurement): each request contributes a
``service_latency`` sample equal to its response time at the tier *minus*
time spent waiting for nested-RPC downstream responses -- i.e. thread/CPU
queueing plus own processing (plus daemon-dispatch wait for event-driven
RPC, plus queue residency for MQ consumers).  End-to-end request latency
is the completion time of the whole call tree.

Tracing: when a request is sampled (see
:class:`~repro.telemetry.tracing.Tracer`), a
:class:`~repro.telemetry.tracing.Span` rides along through
``submit``/``publish``/``_execute``; the runtime records one segment per
wait (queue, service, downstream) with absolute timestamps, creating
child spans as the call tree fans out.  ``span=None`` (the default, and
every unsampled request) costs a handful of ``is not None`` checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError, TopologyError
from repro.net.messages import Call, Request
from repro.net.mq import MessageQueue
from repro.sim.engine import AnyOf, Environment, Event
from repro.sim.resources import Resource
from repro.telemetry.metrics import CounterHandle, LatencyHandle, MetricsHub
from repro.telemetry.tracing import PHASE_DOWNSTREAM, PHASE_QUEUE, PHASE_SERVICE, Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import Cluster
    from repro.cluster.deployment import Pod
    from repro.services.spec import ServiceSpec
    from repro.sim.random import RandomStreams

__all__ = ["Microservice", "Replica"]

#: One-way network delay of an RPC hop (s); each call pays it twice,
#: request and response, in one event.
NETWORK_DELAY_S = 0.0005
#: Period (s) of the per-service and cluster-wide allocation gauges.
UTILIZATION_SAMPLE_INTERVAL_S = 5.0


class Replica:
    """One running replica: thread pool, CPU cores, daemon pool."""

    def __init__(self, env: Environment, pod: "Pod", spec: "ServiceSpec") -> None:
        self.env = env
        self.pod = pod
        self.cpu = Resource(env, pod.cpus)
        self.threads = Resource(env, pod.cpus * spec.threads_per_cpu)
        self.daemons = Resource(
            env,
            max(1, int(pod.cpus * spec.threads_per_cpu * spec.daemon_pool_factor)),
        )
        self.inflight = 0
        self.busy_time = 0.0
        self.stopping = False
        self.stop_event: Event = env.event()

    @property
    def cpus(self) -> int:
        return self.cpu.capacity

    def set_cpu_limit(self, cpus: int, spec: "ServiceSpec") -> None:
        """In-place CPU resize (profiling-engine hook, like VPA in-place)."""
        self.cpu.resize(cpus)
        self.threads.resize(cpus * spec.threads_per_cpu)
        self.daemons.resize(
            max(1, int(cpus * spec.threads_per_cpu * spec.daemon_pool_factor))
        )


class Microservice:
    """Runtime for one microservice: dispatch, execution, telemetry.

    Construction registers a deployment with the cluster; scaling happens
    through :meth:`scale_to` (what resource managers call) and takes effect
    after the container startup delay.
    """

    def __init__(
        self,
        env: Environment,
        spec: "ServiceSpec",
        cluster: "Cluster",
        hub: MetricsHub,
        streams: "RandomStreams",
        initial_replicas: int = 1,
    ) -> None:
        self.env = env
        self.spec = spec
        self.cluster = cluster
        self.hub = hub
        self.name = spec.name
        self._rng = streams.stream(f"service:{spec.name}")
        self._work = spec.handlers
        #: CPU throttling factor in (0, 1]; Fig. 2 injects anomalies here.
        self.speed_factor = 1.0
        self._cpu_limit_override: int | None = None
        self.queue = MessageQueue(env, spec.name)
        #: request class -> (requests_total counter, service_latency
        #: recorder) interned hub handles; see _request_handles.
        self._hot_handles: dict[str, tuple[CounterHandle, LatencyHandle]] = {}
        self._replicas: dict[str, Replica] = {}
        self._running: list[Replica] = []
        self._rr = 0
        self._replica_waiters: list[Event] = []
        #: service name -> Microservice; wired by the application topology.
        self.peers: dict[str, "Microservice"] = {}
        self.deployment = cluster.create_deployment(
            name=spec.name,
            cpus_per_replica=spec.cpus_per_replica,
            memory_per_replica_gb=spec.memory_per_replica_gb,
            replicas=initial_replicas,
            startup_delay_s=spec.startup_delay_s,
            on_pod_running=self._on_pod_running,
            on_pod_stopping=self._on_pod_stopping,
        )
        env.process(self._monitor())

    # ------------------------------------------------------------------
    # Replica lifecycle
    # ------------------------------------------------------------------
    def _on_pod_running(self, pod: "Pod") -> None:
        replica = Replica(self.env, pod, self.spec)
        if self._cpu_limit_override is not None:
            replica.set_cpu_limit(self._cpu_limit_override, self.spec)
        self._replicas[pod.name] = replica
        self._running.append(replica)
        self.env.process(self._consumer_loop(replica))
        waiters, self._replica_waiters = self._replica_waiters, []
        for waiter in waiters:
            waiter.succeed()

    def _on_pod_stopping(self, pod: "Pod") -> None:
        replica = self._replicas.get(pod.name)
        if replica is None:  # pragma: no cover - defensive
            pod.drained.succeed()
            return
        replica.stopping = True
        if replica in self._running:
            self._running.remove(replica)
        replica.stop_event.succeed()
        self._maybe_drained(replica)

    def _maybe_drained(self, replica: Replica) -> None:
        if replica.stopping and replica.inflight == 0:
            if not replica.pod.drained.triggered:
                replica.pod.drained.succeed()

    # ------------------------------------------------------------------
    # Control-plane API
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> int:
        """Running replica count."""
        return len(self._running)

    @property
    def allocated_cpus(self) -> int:
        return self.deployment.allocated_cpus

    def scale_to(self, replicas: int) -> None:
        """Set the desired replica count (the knob all managers turn)."""
        self.deployment.scale_to(replicas)

    def set_speed_factor(self, factor: float) -> None:
        """Throttle/restore CPU speed (anomaly injection, Fig. 2)."""
        if factor <= 0:
            raise ConfigurationError(f"speed factor must be > 0, got {factor}")
        self.speed_factor = float(factor)

    def set_cpu_limit(self, cpus: int) -> None:
        """In-place per-replica CPU resize (backpressure profiling hook)."""
        if cpus < 1:
            raise ConfigurationError(f"cpu limit must be >= 1, got {cpus}")
        self._cpu_limit_override = int(cpus)
        for replica in self._replicas.values():
            if not replica.stopping:
                replica.set_cpu_limit(cpus, self.spec)

    def queue_depth(self) -> int:
        """Pending work: MQ backlog plus thread-queue waiters."""
        return self.queue.depth + sum(r.threads.queue_len for r in self._running)

    # ------------------------------------------------------------------
    # Request entry points
    # ------------------------------------------------------------------
    def submit(
        self, request: Request, call: Call, span: Span | None = None
    ) -> tuple[Event, Event]:
        """Invoke this service via RPC for one call-tree node.

        Returns ``(response, done)``: ``response`` fires when the service
        answers its caller (nested-RPC semantics), ``done`` when the whole
        subtree rooted at ``call`` has completed.  ``span`` is this hop's
        trace span when the request is sampled.
        """
        if call.service != self.name:
            raise TopologyError(
                f"call for {call.service!r} submitted to {self.name!r}"
            )
        env = self.env
        response = Event(env)
        done = Event(env)
        env.process(self._execute(request, call, response, done, span=span))
        return response, done

    def publish(
        self, request: Request, call: Call, span: Span | None = None
    ) -> Event:
        """Invoke this service via its message queue.

        Returns the ``done`` event for the subtree.  Never blocks the
        caller: the message waits in the queue until a consumer picks it
        up.  The span (if sampled) travels inside the message payload, so
        queue residency lands on the *consumer's* span as queue wait.
        """
        if call.service != self.name:
            raise TopologyError(
                f"call for {call.service!r} published to {self.name!r}"
            )
        env = self.env
        done = Event(env)
        self.queue.publish(
            (request, call, done, env._now, span), priority=request.priority
        )
        return done

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _request_handles(
        self, request_class: str
    ) -> tuple[CounterHandle, LatencyHandle]:
        """Interned (requests_total, service_latency) writers per class.

        One registry check and series lookup per (service, class) pair;
        after that, the per-request hot path below touches only the
        handles' window dicts.
        """
        handles = self._hot_handles.get(request_class)
        if handles is None:
            labels = {"request": request_class, "service": self.name}
            handles = self._hot_handles[request_class] = (
                self.hub.counter_handle("requests_total", labels=labels),
                self.hub.latency_handle("service_latency", labels=labels),
            )
        return handles

    def _peer(self, name: str) -> "Microservice":
        try:
            return self.peers[name]
        except KeyError:
            raise TopologyError(
                f"service {self.name!r} has no wired peer {name!r}"
            ) from None

    def _execute(
        self,
        request: Request,
        call: Call,
        response: Event,
        done: Event,
        replica: Replica | None = None,
        publish_time: float | None = None,
        span: Span | None = None,
    ):
        """Serve one call-tree node (runs as a simulation process).

        For RPC entry (``replica is None``) a replica is chosen here and a
        thread acquired; for MQ entry the consumer loop already owns both.

        When ``span`` is set the hop records segments that exactly tile
        ``[t_submit, response]``: queue (replica/thread/CPU/daemon waits,
        MQ residency), service (handler execution + network legs), and
        downstream (blocked on a nested-RPC or event child, delegating
        that interval to the child's span).
        """
        env = self.env
        t_submit = publish_time if publish_time is not None else env._now
        request_class = request.request_class
        requests_total, service_latency_h = self._request_handles(request_class)
        requests_total.inc()
        if replica is None:
            # Round-robin over running replicas, waiting if none is.
            running = self._running
            while not running:
                waiter = Event(env)
                self._replica_waiters.append(waiter)
                yield waiter
            self._rr += 1
            replica = running[self._rr % len(running)]
            replica.inflight += 1
            # The thread slot is released mid-protocol (after the RPC legs,
            # before the daemon leg) rather than in a finally: holding it
            # through the daemon handoff would model the wrong concurrency.
            # ursalint: transfers=replica.threads -- deliberate mid-protocol release below
            yield replica.threads.acquire(priority=request.priority)
        if span is not None:
            span.replica = replica.pod.name
            mark = env._now
            span.record(PHASE_QUEUE, t_submit, mark)

        # Local processing: occupy one core for the sampled work.
        work = self._work.get(request_class)
        if work is None:
            raise TopologyError(
                f"service {self.name!r} has no handler for request class "
                f"{request_class!r}"
            )
        ptime = work.sample(self._rng) / self.speed_factor
        yield replica.cpu.acquire(priority=request.priority)
        if span is not None:
            span.record(PHASE_QUEUE, mark, env._now)
            mark = env._now
        try:
            yield env.timeout(ptime)
        finally:
            replica.cpu.release()
        replica.busy_time += ptime
        if span is not None:
            span.record(PHASE_SERVICE, mark, env._now)
            mark = env._now

        child_dones: list[Event] = []
        downstream_wait = 0.0
        mq_legs, rpc_legs, event_legs = call.legs

        # Fire-and-forget MQ children first: publishing never blocks, so
        # the parent records no segment; the child span's queue phase
        # covers the message's whole queue residency.
        for child in mq_legs:
            child_span = (
                span.new_child(child.service, "mq", env._now)
                if span is not None
                else None
            )
            child_dones.append(
                self._peer(child.service).publish(request, child, span=child_span)
            )

        # Nested RPC children: sequential, holding this service's thread.
        for child in rpc_legs:
            t0 = env._now
            child_span = (
                span.new_child(child.service, "rpc", t0)
                if span is not None
                else None
            )
            child_response, child_done = self._peer(child.service).submit(
                request, child, span=child_span
            )
            yield child_response
            downstream_wait += env._now - t0
            child_dones.append(child_done)
            if span is not None:
                span.record(PHASE_DOWNSTREAM, t0, env._now, child_span)
                mark = env._now

        if event_legs:
            # Hand off to a daemon thread; dispatch blocks (holding the
            # worker thread) when the daemon pool is exhausted -- the
            # event-driven backpressure path.
            # ursalint: transfers=replica.daemons -- released after the event-driven leg
            yield replica.daemons.acquire(priority=request.priority)
            if span is not None:
                span.record(PHASE_QUEUE, mark, env._now)
                mark = env._now

        replica.threads.release()
        # Both network legs (request + response) in one event.
        yield env.timeout(2.0 * NETWORK_DELAY_S)
        service_latency_h.record(env._now - t_submit - downstream_wait)
        if span is not None:
            span.record(PHASE_SERVICE, mark, env._now)
            mark = env._now
            span.response_end = env._now
        response.succeed()

        if event_legs:
            # Daemon leg: perform the event-driven calls, waiting for each
            # downstream response (the R1 step of Fig. 1(b)).
            for child in event_legs:
                t0 = env._now
                child_span = (
                    span.new_child(child.service, "event", t0)
                    if span is not None
                    else None
                )
                child_response, child_done = self._peer(child.service).submit(
                    request, child, span=child_span
                )
                yield child_response
                child_dones.append(child_done)
                if span is not None:
                    span.record(PHASE_DOWNSTREAM, t0, env._now, child_span)
                    mark = env._now
            replica.daemons.release()

        replica.inflight -= 1
        self._maybe_drained(replica)

        pending = [ev for ev in child_dones if not ev.processed]
        if pending:
            yield env.all_of(pending)
        if span is not None:
            span.end = env._now
        done.succeed()

    def _consumer_loop(self, replica: Replica):
        """Consume MQ messages: pull one, wait for a thread, process async.

        The loop never holds an idle thread: it pulls a message first and
        only then contends for a thread slot (with the message's priority),
        so MQ consumption cannot starve RPC traffic on small replicas.
        """
        env = self.env
        while not replica.stopping:
            get_ev = self.queue.consume()
            if not get_ev.triggered:
                yield AnyOf(env, [get_ev, replica.stop_event])
            if not get_ev.triggered:
                self.queue.cancel_consume(get_ev)
                break
            self.queue.consumed += 1
            request, call, done, publish_time, span = MessageQueue.payload_of(
                get_ev.value
            )
            # The pulled message is owned by this replica from here on; it
            # counts as in-flight so scale-down drains wait for it.
            replica.inflight += 1
            # Slot ownership transfers to the _execute process spawned below,
            # which releases it; a finally here would double-release.
            # ursalint: transfers=replica.threads -- ownership handed to _execute
            yield replica.threads.acquire(priority=request.priority)
            response = Event(env)
            env.process(
                self._execute(
                    request,
                    call,
                    response,
                    done,
                    replica=replica,
                    publish_time=publish_time,
                    span=span,
                )
            )

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _monitor(self):
        env = self.env
        interval = UTILIZATION_SAMPLE_INTERVAL_S
        last_busy = 0.0
        labels = {"service": self.name}
        utilization_gauge = self.hub.gauge_handle("cpu_utilization", labels)
        allocated_gauge = self.hub.gauge_handle("cpu_allocated", labels)
        queue_gauge = self.hub.gauge_handle("queue_depth", labels)
        while True:
            yield env.timeout(interval)
            replicas = [r for r in self._replicas.values() if not r.stopping]
            capacity = sum(r.cpu.capacity for r in replicas)
            busy_now = sum(r.busy_time for r in self._replicas.values())
            delta = busy_now - last_busy
            last_busy = busy_now
            if capacity > 0:
                utilization = min(1.0, delta / (capacity * interval))
                utilization_gauge.observe(utilization)
            allocated_gauge.observe(float(self.deployment.allocated_cpus))
            queue_gauge.observe(float(self.queue_depth()))
