"""Distributed tracing: per-request span trees + critical-path attribution.

The windowed :class:`~repro.telemetry.metrics.MetricsHub` answers
*aggregate* questions (p99 over a window); this module answers the
request-level one the paper's SLA-decomposition math rests on: **where
did this request's latency actually accrue?**  It is the repro's
Jaeger substitute.

Span model
==========

Each sampled request carries a :class:`Trace`: a tree of :class:`Span`
nodes, one per call-tree hop, created as the request propagates through
the RPC semantics of :mod:`repro.services.base` (nested calls holding
the caller thread, event-driven daemon-pool calls), MQ consumer groups,
and replica queues.
A span records absolute timestamps for every *segment* of its residency:

* ``queue``  -- waiting for a resource: replica availability, a thread
  slot, a CPU core, a daemon slot, or MQ queue residency;
* ``service`` -- executing the handler (plus the network round-trip);
* ``downstream`` -- blocked on a child span (the segment references it).

Segments tile the span's timeline exactly -- every simulated instant of
a request's life belongs to exactly one segment of exactly one span --
which is what makes the critical path *exact* rather than sampled.

Critical path
=============

:func:`critical_path` walks a finished trace from arrival to completion
and returns contiguous :class:`PathSegment`\\ s attributing every moment
of end-to-end latency to a ``(service, phase)`` pair: time inside a
``downstream`` segment is recursively attributed to the child; time
after a span's own activity (waiting for MQ / event-driven subtrees) is
attributed to the child that finished *last* (the one actually gating
completion).  The segment durations sum to the request's end-to-end
latency to float precision; :class:`Tracer` verifies this for every
finished request.

:class:`CriticalPathSummary` aggregates attributions per request class,
so experiments can print
"p99 of class A is 62 % queue wait at nginx, 23 % service time at
post-storage" -- the direct cross-check of §IV's per-service latency
targets used by ``fig09_10_model_accuracy``.

Exporters
=========

:func:`traces_to_jsonl` dumps span trees as deterministic JSON lines
(byte-identical for same-seed runs -- the determinism suite pins this);
:func:`traces_to_chrome` emits the Chrome/Perfetto ``trace_event``
format so traces load in ``chrome://tracing`` / `ui.perfetto.dev`.

Sampling
========

Tracing costs memory per sampled request, so :class:`Tracer` takes
``sample_every_n`` (sample every n-th request of each class).  Sampling
is a deterministic per-class counter, never randomness: the same seed
traces the same requests regardless of job count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.errors import TelemetryError

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.messages import Request

__all__ = [
    "CriticalPathSummary",
    "PathSegment",
    "Span",
    "Trace",
    "Tracer",
    "attribute_latency",
    "critical_path",
    "trace_from_dict",
    "traces_from_jsonl",
    "traces_to_chrome",
    "traces_to_jsonl",
    "write_chrome_trace",
]

#: Span phases (the breakdown axis of the attribution).
PHASE_QUEUE = "queue"
PHASE_SERVICE = "service"
PHASE_DOWNSTREAM = "downstream"
PHASES = (PHASE_QUEUE, PHASE_SERVICE, PHASE_DOWNSTREAM)


class Span:
    """One service visit of one traced request.

    Created by the runtime as context propagates; segments are recorded
    in time order and tile ``[start, <end of own activity>]``.  ``end``
    (the completion of the whole subtree, including MQ / event-driven
    children) is set when the hop's ``done`` event fires.
    """

    __slots__ = (
        "trace",
        "span_id",
        "parent_id",
        "service",
        "mode",
        "replica",
        "start",
        "response_end",
        "end",
        "segments",
        "children",
    )

    def __init__(
        self,
        trace: "Trace",
        span_id: int,
        parent_id: int | None,
        service: str,
        mode: str,
        start: float,
    ) -> None:
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.service = service
        self.mode = mode
        self.replica: str | None = None
        self.start = start
        self.response_end: float | None = None
        self.end: float | None = None
        #: (phase, t0, t1, child span or None), in time order.
        self.segments: list[tuple[str, float, float, "Span | None"]] = []
        self.children: list["Span"] = []

    def new_child(self, service: str, mode: str, start: float) -> "Span":
        """Create (and register) a child span for a downstream call."""
        child = self.trace._new_span(service, mode, start, parent=self)
        self.children.append(child)
        return child

    def record(
        self,
        phase: str,
        t0: float,
        t1: float,
        child: "Span | None" = None,
    ) -> None:
        """Append one segment; zero-length segments are dropped."""
        if t1 > t0:
            self.segments.append((phase, t0, t1, child))

    def phase_totals(self) -> dict[str, float]:
        """Seconds spent per phase in this span's own segments."""
        totals = {PHASE_QUEUE: 0.0, PHASE_SERVICE: 0.0, PHASE_DOWNSTREAM: 0.0}
        for phase, t0, t1, _child in self.segments:
            totals[phase] += t1 - t0
        return totals

    def walk(self) -> Iterable["Span"]:
        """This span and all descendants, preorder."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """JSON-ready form (children nested, child refs by span id)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "service": self.service,
            "mode": self.mode,
            "replica": self.replica,
            "start": self.start,
            "response_end": self.response_end,
            "end": self.end,
            "segments": [
                [phase, t0, t1, child.span_id if child is not None else None]
                for phase, t0, t1, child in self.segments
            ],
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return (
            f"<Span {self.span_id} {self.service} [{self.mode}] "
            f"start={self.start:.6f}>"
        )


class Trace:
    """The span tree of one sampled request."""

    __slots__ = ("request_id", "request_class", "arrival", "completion", "root", "_next_id")

    def __init__(self, request_id: int, request_class: str, arrival: float) -> None:
        self.request_id = request_id
        self.request_class = request_class
        self.arrival = arrival
        self.completion: float | None = None
        self.root: Span | None = None
        self._next_id = 0

    def _new_span(
        self, service: str, mode: str, start: float, parent: Span | None = None
    ) -> Span:
        self._next_id += 1
        return Span(
            self,
            self._next_id,
            parent.span_id if parent is not None else None,
            service,
            mode,
            start,
        )

    def begin_root(self, service: str, mode: str) -> Span:
        if self.root is not None:
            raise TelemetryError(f"trace {self.request_id} already has a root span")
        self.root = self._new_span(service, mode, self.arrival)
        return self.root

    @property
    def latency(self) -> float:
        if self.completion is None:
            raise TelemetryError(f"trace {self.request_id} has not completed")
        return self.completion - self.arrival

    def spans(self) -> list[Span]:
        return list(self.root.walk()) if self.root is not None else []

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "request_class": self.request_class,
            "arrival": self.arrival,
            "completion": self.completion,
            "latency": self.latency if self.completion is not None else None,
            "root": self.root.to_dict() if self.root is not None else None,
        }


# ----------------------------------------------------------------------
# Critical-path analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PathSegment:
    """One contiguous slice of a request's critical path."""

    service: str
    phase: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _attribute(span: Span, t_lo: float, t_hi: float, out: list[PathSegment]) -> None:
    """Attribute ``[t_lo, t_hi]`` of the timeline to ``span``'s subtree.

    Invariant: the appended segments exactly tile ``[t_lo, t_hi]`` --
    every recursion either covers its clipped interval with own segments
    or delegates it whole, so durations telescope to ``t_hi - t_lo``.
    """
    cursor = t_lo
    for phase, s0, s1, child in span.segments:
        a = max(cursor, s0)
        b = min(t_hi, s1)
        if b <= a:
            continue
        if child is not None:
            _attribute(child, a, b, out)
        else:
            out.append(PathSegment(span.service, phase, a, b))
        cursor = b
        if cursor >= t_hi:
            return
    if cursor >= t_hi:
        return
    # Past the span's own activity: the remaining time waits on
    # asynchronous subtrees (MQ publishes, event-driven legs).  The child
    # finishing last is the one gating completion, so it owns the tail.
    waiting = [c for c in span.children if c.end is not None and c.end > cursor]
    if not waiting:
        # Defensive: no child explains the tail (e.g. a snapshot of a
        # live trace) -- keep the attribution exhaustive by charging the
        # span itself as downstream wait.
        out.append(PathSegment(span.service, PHASE_DOWNSTREAM, cursor, t_hi))
        return
    last = max(waiting, key=lambda c: (c.end, c.span_id))
    a = max(cursor, last.start)
    if a > cursor:
        out.append(PathSegment(span.service, PHASE_DOWNSTREAM, cursor, a))
    b = min(t_hi, last.end)  # type: ignore[arg-type]
    if b > a:
        _attribute(last, a, b, out)
    if b < t_hi:
        out.append(PathSegment(span.service, PHASE_DOWNSTREAM, b, t_hi))


def critical_path(trace: Trace) -> list[PathSegment]:
    """The chain of (service, phase) slices gating a request end to end.

    The returned segments are contiguous, cover ``[arrival, completion]``
    exactly, and therefore sum to the end-to-end latency (to float
    precision -- the determinism suite asserts 1e-6).
    """
    if trace.root is None or trace.completion is None:
        raise TelemetryError(
            f"trace {trace.request_id} is incomplete; critical path needs a "
            "finished span tree"
        )
    out: list[PathSegment] = []
    _attribute(trace.root, trace.arrival, trace.completion, out)
    return out


def attribute_latency(trace: Trace) -> dict[tuple[str, str], float]:
    """Aggregate a trace's critical path into (service, phase) -> seconds."""
    agg: dict[tuple[str, str], float] = {}
    for seg in critical_path(trace):
        key = (seg.service, seg.phase)
        agg[key] = agg.get(key, 0.0) + seg.duration
    return agg


@dataclass
class _ClassAggregate:
    """Attribution totals for one request class."""

    requests: int = 0
    total_latency: float = 0.0
    by_location: dict[tuple[str, str], float] = field(default_factory=dict)

    def add(self, latency: float, attribution: Mapping[tuple[str, str], float]) -> None:
        self.requests += 1
        self.total_latency += latency
        for key, seconds in attribution.items():
            self.by_location[key] = self.by_location.get(key, 0.0) + seconds

    def fractions(self) -> list[tuple[str, str, float]]:
        """(service, phase, fraction of total latency), largest first."""
        if self.total_latency <= 0:
            return []
        items = [
            (service, phase, seconds / self.total_latency)
            for (service, phase), seconds in self.by_location.items()
        ]
        items.sort(key=lambda item: (-item[2], item[0], item[1]))
        return items


class CriticalPathSummary:
    """Aggregated critical-path attributions, one aggregate per class."""

    def __init__(self) -> None:
        #: request class -> aggregate
        self._aggregates: dict[str, _ClassAggregate] = {}

    def add(self, trace: Trace) -> dict[tuple[str, str], float]:
        """Fold one finished trace in; returns its attribution."""
        attribution = attribute_latency(trace)
        agg = self._aggregates.get(trace.request_class)
        if agg is None:
            agg = self._aggregates[trace.request_class] = _ClassAggregate()
        agg.add(trace.latency, attribution)
        return attribution

    def classes(self) -> list[str]:
        return sorted(self._aggregates)

    def pooled(self, request_class: str) -> _ClassAggregate:
        """Every trace of one class folded together (empty if none)."""
        return self._aggregates.get(request_class, _ClassAggregate())

    def render(self, top: int = 4) -> str:
        """Per-class one-liners: where the latency mass sits."""
        lines = []
        for cls in self.classes():
            agg = self.pooled(cls)
            if not agg.requests:
                continue
            parts = [
                f"{fraction:.1%} {phase} at {service}"
                for service, phase, fraction in agg.fractions()[:top]
            ]
            mean = agg.total_latency / agg.requests
            lines.append(
                f"{cls}: {agg.requests} traced, mean {mean * 1e3:.1f} ms -- "
                + ", ".join(parts)
            )
        return "\n".join(lines) if lines else "(no traces collected)"


# ----------------------------------------------------------------------
# The tracer (sampling + collection)
# ----------------------------------------------------------------------
class Tracer:
    """Decides which requests to trace and collects finished traces.

    ``sample_every_n`` -- sample every n-th request of each class.
    Sampling is a deterministic per-class counter: the first request of a
    class is always traced, then every n-th after it.

    Every finished trace's critical path is recomputed, and
    :class:`~repro.errors.TelemetryError` is raised if the attributed
    durations do not sum to the end-to-end latency within ``1e-6`` -- the
    executable form of the exactness contract.

    The tracer keeps its state to itself: it writes nothing to the
    :class:`~repro.telemetry.metrics.MetricsHub` (:attr:`finished`
    holds every sampled request that completed).
    """

    def __init__(self, sample_every_n: int = 1) -> None:
        if sample_every_n < 1:
            raise TelemetryError(
                f"sample_every_n must be >= 1, got {sample_every_n}"
            )
        self._every = sample_every_n
        self._counters: dict[str, int] = {}
        self._next_trace_id = 0
        self.finished: list[Trace] = []

    def begin(self, request: "Request", service: str, mode: str) -> Span | None:
        """Sampling decision for one submitted request.

        Returns the root span to thread through the runtime, or ``None``
        when the request is not sampled (the runtime then skips all span
        bookkeeping).
        """
        cls = request.request_class
        seen = self._counters.get(cls, 0)
        self._counters[cls] = seen + 1
        if seen % self._every:
            return None
        # Tracer-local id, not ``request.request_id``: the tracer samples
        # a subset of requests, and dense ids keep dumps stable when the
        # sampling rate changes.
        trace = Trace(self._next_trace_id, cls, request.arrival_time)
        self._next_trace_id += 1
        return trace.begin_root(service, mode)

    def finish(self, trace: Trace, completion: float) -> None:
        """Record a trace whose request tree has completed."""
        trace.completion = completion
        attributed = sum(seg.duration for seg in critical_path(trace))
        if abs(attributed - trace.latency) > 1e-6:
            raise TelemetryError(
                f"critical path of request {trace.request_id} "
                f"({trace.request_class}) sums to {attributed!r}, "
                f"end-to-end latency is {trace.latency!r}"
            )
        self.finished.append(trace)

    def summary(self) -> CriticalPathSummary:
        """Critical-path attribution over all finished traces."""
        summary = CriticalPathSummary()
        for trace in self.finished:
            summary.add(trace)
        return summary


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def traces_to_jsonl(traces: Iterable[Trace]) -> str:
    """One deterministic JSON object per finished trace, newline-joined.

    Key order and float formatting are fixed (``sort_keys`` + repr
    floats), so same-seed runs dump byte-identical lines regardless of
    process count -- the property the determinism suite pins.
    """
    lines = [
        json.dumps(trace.to_dict(), sort_keys=True, separators=(",", ":"))
        for trace in traces
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def _span_from_dict(trace: Trace, payload: dict, by_id: dict[int, "Span"]) -> Span:
    span = Span(
        trace,
        payload["span_id"],
        payload["parent_id"],
        payload["service"],
        payload["mode"],
        payload["start"],
    )
    span.replica = payload["replica"]
    span.response_end = payload["response_end"]
    span.end = payload["end"]
    by_id[span.span_id] = span
    span.children = [
        _span_from_dict(trace, child, by_id) for child in payload["children"]
    ]
    # Child refs in segments are span ids until the whole tree exists;
    # trace_from_dict resolves them in a second pass.
    span.segments = [tuple(seg) for seg in payload["segments"]]
    return span


def trace_from_dict(payload: dict) -> Trace:
    """Rebuild one :class:`Trace` from its :meth:`Trace.to_dict` form."""
    trace = Trace(
        payload["request_id"], payload["request_class"], payload["arrival"]
    )
    trace.completion = payload["completion"]
    if payload["root"] is not None:
        by_id: dict[int, Span] = {}
        trace.root = _span_from_dict(trace, payload["root"], by_id)
        for span in trace.root.walk():
            span.segments = [
                (phase, t0, t1, by_id[child] if child is not None else None)
                for phase, t0, t1, child in span.segments
            ]
        trace._next_id = max(by_id)
    return trace


def traces_from_jsonl(text: str) -> list[Trace]:
    """Parse :func:`traces_to_jsonl` output back into live traces.

    The exact inverse of the exporter: ``traces_to_jsonl(
    traces_from_jsonl(text)) == text`` for any of its outputs, so dumps
    can round-trip through the results store and still feed the
    critical-path and Chrome-trace tooling.
    """
    return [
        trace_from_dict(json.loads(line))
        for line in text.splitlines()
        if line.strip()
    ]


def traces_to_chrome(traces: Iterable[Trace]) -> dict:
    """Chrome/Perfetto ``trace_event`` dump of the span trees.

    Each request becomes one *process* (pid = request id) whose rows
    (tids) are spans; segments are emitted as nested complete events so
    the queue/service/downstream breakdown is visible on the timeline.
    Times are microseconds, as the format requires.
    """
    events: list[dict] = []
    for trace in traces:
        if trace.root is None:
            continue
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": trace.request_id,
                "tid": 0,
                "args": {
                    "name": f"request {trace.request_id} [{trace.request_class}]"
                },
            }
        )
        for span in trace.root.walk():
            end = span.end if span.end is not None else span.start
            events.append(
                {
                    "ph": "X",
                    "name": f"{span.service} [{span.mode}]",
                    "cat": trace.request_class,
                    "pid": trace.request_id,
                    "tid": span.span_id,
                    "ts": span.start * 1e6,
                    "dur": (end - span.start) * 1e6,
                    "args": {
                        "replica": span.replica,
                        "phases_ms": {
                            phase: total * 1e3
                            for phase, total in sorted(span.phase_totals().items())
                        },
                    },
                }
            )
            for phase, t0, t1, child in span.segments:
                events.append(
                    {
                        "ph": "X",
                        "name": phase if child is None else f"{phase}:{child.service}",
                        "cat": trace.request_class,
                        "pid": trace.request_id,
                        "tid": span.span_id,
                        "ts": t0 * 1e6,
                        "dur": (t1 - t0) * 1e6,
                        "args": {},
                    }
                )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(traces: Iterable[Trace], path: str | Path) -> int:
    """Write the ``trace_event`` dump to ``path``; returns #events."""
    payload = traces_to_chrome(traces)
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n",
        encoding="utf-8",
    )
    return len(payload["traceEvents"])
