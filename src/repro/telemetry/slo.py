"""Streaming SLO monitoring: error budgets and burn-rate alerting.

The control loop exists to keep per-class SLA violation rates under a
threshold, but until this module violations were only *recomputed* from
latency histograms after a run finished.  :class:`SLOMonitor` is the
streaming counterpart: a pure observer that subscribes to request
completions and maintains, per request class,

* a cumulative **error budget**: an :class:`SLOSpec` says "``objective``
  of requests must finish within ``target_s``"; the budget is the
  tolerated bad fraction (``1 - objective``), and consumption is the
  observed bad fraction over it (Google-SRE accounting);
* two rolling **burn rates** (fast + slow window): the windowed bad
  fraction divided by the error budget, so ``1.0`` means "violating at
  exactly the tolerated rate" and higher values exhaust the budget
  proportionally faster;
* deterministic, sim-clock-stamped :class:`Alert` fire/resolve records
  using the classic multi-window rule -- page when *both* windows burn
  above the threshold (the fast window gates detection latency, the slow
  window filters blips), resolve with hysteresis once both fall back
  below the resolve threshold.

Purity contract: the monitor never touches an RNG stream and never
schedules engine events -- it runs entirely inside completion callbacks
of events the application already scheduled, so a monitored run's event
trace (and :class:`~repro.sim.trace.RunDigest`) is byte-identical to an
unmonitored one.  ``tests/telemetry/test_slo.py`` pins this, and
``alerts_to_jsonl`` output is byte-identical across same-seed reruns the
same way span dumps are.

Window sums are bucketed (``bucket_s``) rather than per-request deques:
each completion updates O(1) running sums, and buckets are retired from
the window as the sim clock advances.  Alert names come from
:data:`~repro.telemetry.registry.ALERT_REGISTRY` -- an undeclared name
raises at emit time, and the ursalint rule ``TEL002`` flags literals at
lint time.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from repro.errors import TelemetryError
from repro.telemetry.registry import ALERT_REGISTRY

if TYPE_CHECKING:  # pragma: no cover
    from repro.apps.topology import AppSpec, Application

__all__ = [
    "ALERT_BUDGET_EXHAUSTED",
    "ALERT_BURN_RATE",
    "Alert",
    "SLOMonitor",
    "SLOSpec",
    "alerts_digest",
    "alerts_from_jsonl",
    "alerts_to_jsonl",
    "budget_pressure",
    "slo_specs_for",
]

#: Registered alert series names (see ALERT_REGISTRY in the registry
#: module); TEL002 resolves these constants like TEL001 resolves metric
#: name constants.
ALERT_BURN_RATE = "slo-burn-rate"
ALERT_BUDGET_EXHAUSTED = "slo-budget-exhausted"

#: Multi-window burn rule: fire when both windows burn at >= this rate...
BURN_FIRE_RATE = 4.0
#: ...and resolve once both are back at <= this one (hysteresis).
BURN_RESOLVE_RATE = 2.0
#: An exhausted-budget alert resolves once consumption drops below this.
BUDGET_RESOLVE_FRACTION = 0.9

_STATES = ("fire", "resolve")


@dataclass(frozen=True)
class SLOSpec:
    """One class's service-level objective.

    ``objective`` is the fraction of requests that must complete within
    ``target_s`` (e.g. ``0.99``); the error budget is ``1 - objective``.
    :meth:`from_sla` derives the objective from the class's SLA
    percentile -- a p99 SLA tolerates 1 % of requests over target.
    """

    request_class: str
    target_s: float
    objective: float = 0.99

    def __post_init__(self) -> None:
        if self.target_s <= 0:
            raise TelemetryError(
                f"SLO target must be > 0, got {self.target_s}"
            )
        if not 0.0 < self.objective < 1.0:
            raise TelemetryError(
                f"SLO objective must be in (0, 1), got {self.objective}"
            )

    @property
    def error_budget(self) -> float:
        """Tolerated bad-request fraction (``1 - objective``)."""
        return 1.0 - self.objective

    @classmethod
    def from_sla(cls, request_class: str, sla) -> "SLOSpec":
        """Derive the SLO from an :class:`~repro.apps.topology.SlaSpec`."""
        return cls(
            request_class=request_class,
            target_s=sla.target_s,
            objective=sla.percentile / 100.0,
        )


def slo_specs_for(spec: "AppSpec") -> tuple[SLOSpec, ...]:
    """One :class:`SLOSpec` per request class of an application spec."""
    return tuple(
        SLOSpec.from_sla(rc.name, rc.sla) for rc in spec.request_classes
    )


@dataclass(frozen=True)
class Alert:
    """One deterministic alert transition (sim-clock stamped).

    ``name`` must be declared in
    :data:`~repro.telemetry.registry.ALERT_REGISTRY`; ``state`` is
    ``"fire"`` or ``"resolve"``.  The burn rates and budget consumption
    are snapshots at the transition, so a timeline of alerts doubles as
    a sparse burn-rate series.
    """

    name: str
    request_class: str
    state: str
    time: float
    fast_burn: float
    slow_burn: float
    budget_consumed: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "request_class": self.request_class,
            "state": self.state,
            "time": self.time,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "budget_consumed": self.budget_consumed,
        }


def alerts_to_jsonl(alerts: Iterable[Alert]) -> str:
    """Deterministic JSON-lines dump of an alert timeline.

    Sorted keys, compact separators, repr floats -- the same canonical
    form as :func:`~repro.telemetry.tracing.traces_to_jsonl`, so
    same-seed runs dump byte-identical alert streams.
    """
    lines = [
        json.dumps(alert.to_dict(), sort_keys=True, separators=(",", ":"))
        for alert in alerts
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def alerts_from_jsonl(text: str) -> list[Alert]:
    """Exact inverse of :func:`alerts_to_jsonl`.

    Validates ``state`` against the known transitions -- loaded alerts
    flow into reports (including raw-HTML dashboard cells), so a
    hand-edited sidecar must not smuggle arbitrary strings through.
    """
    out = []
    for line in text.splitlines():
        if not line.strip():
            continue
        payload = json.loads(line)
        if payload.get("state") not in _STATES:
            raise TelemetryError(
                f"alert state must be one of {_STATES}, "
                f"got {payload.get('state')!r}"
            )
        out.append(Alert(**payload))
    return out


def alerts_digest(jsonl: str) -> str:
    """Short BLAKE2b fingerprint of an alert stream (sidecar pinning)."""
    return hashlib.blake2b(jsonl.encode("utf-8"), digest_size=16).hexdigest()


def budget_pressure(budget_report: Mapping[str, Mapping[str, float]]) -> float:
    """Scalar SLO pressure of one run, from its per-class budget report.

    The worst class dominates: pressure is the maximum over classes of
    the error budget consumed, with the slow burn rate (normalised so a
    burn of 1.0 -- budget exactly exhausted over the window -- adds 1.0)
    as a tie-breaker weight for runs whose cumulative budgets are equal
    but which are burning at different rates *now*.  A pure function of
    :meth:`SLOMonitor.budget_report` output, so fleet allocation driven
    by it stays deterministic; returns 0.0 for an empty report.
    """
    pressure = 0.0
    for row in budget_report.values():
        consumed = float(row.get("budget_consumed", 0.0))
        slow = float(row.get("slow_burn", 0.0))
        pressure = max(pressure, consumed + 0.01 * slow)
    return round(pressure, 9)


class _WindowSum:
    """Rolling good/bad counts over the trailing ``span`` buckets."""

    __slots__ = ("buckets", "good", "bad", "span")

    def __init__(self, span: int) -> None:
        #: deque of ``[bucket_index, good, bad]`` (oldest first).
        self.buckets: deque[list] = deque()
        self.good = 0
        self.bad = 0
        self.span = span

    def advance(self, bucket: int) -> None:
        """Retire buckets that fell out of the window ending at ``bucket``."""
        buckets = self.buckets
        cutoff = bucket - self.span
        while buckets and buckets[0][0] <= cutoff:
            _b, g, b = buckets.popleft()
            self.good -= g
            self.bad -= b

    def add(self, bucket: int, good: int, bad: int) -> None:
        self.advance(bucket)
        buckets = self.buckets
        if buckets and buckets[-1][0] == bucket:
            tail = buckets[-1]
            tail[1] += good
            tail[2] += bad
        else:
            buckets.append([bucket, good, bad])
        self.good += good
        self.bad += bad


class _ClassState:
    """Per-class monitor state (sums, cumulative totals, alert flags)."""

    __slots__ = (
        "spec",
        "fast",
        "slow",
        "total_good",
        "total_bad",
        "burn_active",
        "budget_active",
    )

    def __init__(self, spec: SLOSpec, fast_span: int, slow_span: int) -> None:
        self.spec = spec
        self.fast = _WindowSum(fast_span)
        self.slow = _WindowSum(slow_span)
        self.total_good = 0
        self.total_bad = 0
        self.burn_active = False
        self.budget_active = False

    def burn(self, window: _WindowSum) -> float:
        total = window.good + window.bad
        if not total:
            return 0.0
        return (window.bad / total) / self.spec.error_budget

    def budget_consumed(self) -> float:
        total = self.total_good + self.total_bad
        if not total:
            return 0.0
        return (self.total_bad / total) / self.spec.error_budget


class SLOMonitor:
    """Pure-observer streaming SLO evaluation with burn-rate alerting.

    Feed it completed requests via :meth:`observe` (or subscribe it to an
    :class:`~repro.apps.topology.Application` with :meth:`attach`); read
    :attr:`alerts` and :meth:`budget_report`.

    Everything the monitor computes stays on the monitor: it writes
    nothing to the :class:`~repro.telemetry.metrics.MetricsHub`, and the
    alert timeline plus :meth:`budget_report` are its only outputs.
    """

    def __init__(
        self,
        specs: Iterable[SLOSpec],
        clock: Callable[[], float],
        fast_window_s: float = 60.0,
        slow_window_s: float = 300.0,
        bucket_s: float = 5.0,
    ) -> None:
        if bucket_s <= 0:
            raise TelemetryError(f"bucket_s must be > 0, got {bucket_s}")
        if fast_window_s < bucket_s or slow_window_s < fast_window_s:
            raise TelemetryError(
                "windows must satisfy bucket_s <= fast_window_s <= "
                f"slow_window_s, got {bucket_s}/{fast_window_s}/{slow_window_s}"
            )
        self.clock = clock
        self.bucket_s = float(bucket_s)
        self.fast_window_s = float(fast_window_s)
        self.slow_window_s = float(slow_window_s)
        fast_span = max(1, round(fast_window_s / bucket_s))
        slow_span = max(fast_span, round(slow_window_s / bucket_s))
        self._classes: dict[str, _ClassState] = {}
        for spec in specs:
            if spec.request_class in self._classes:
                raise TelemetryError(
                    f"duplicate SLO spec for class {spec.request_class!r}"
                )
            self._classes[spec.request_class] = _ClassState(
                spec, fast_span, slow_span
            )
        #: Chronological alert transitions (the deterministic timeline).
        self.alerts: list[Alert] = []

    # -- subscription ------------------------------------------------------
    def attach(self, app: "Application") -> None:
        """Subscribe to end-to-end request completions of ``app``."""
        app.add_completion_listener(self.on_completion)

    def on_completion(self, request, rc, latency: float) -> None:
        """`Application` completion-listener adapter."""
        self.observe(rc.name, latency)

    # -- observation -------------------------------------------------------
    def observe(self, request_class: str, latency: float) -> None:
        """Fold one completed request in and evaluate alert transitions."""
        state = self._classes.get(request_class)
        if state is None:
            raise TelemetryError(
                f"no SLO spec for request class {request_class!r} "
                f"(declared: {', '.join(sorted(self._classes)) or 'none'})"
            )
        now = self.clock()
        bucket = int(now / self.bucket_s)
        bad = 1 if latency > state.spec.target_s else 0
        good = 1 - bad
        state.fast.add(bucket, good, bad)
        state.slow.add(bucket, good, bad)
        state.total_good += good
        state.total_bad += bad

        fast = state.burn(state.fast)
        slow = state.burn(state.slow)
        consumed = state.budget_consumed()

        if not state.burn_active:
            if fast >= BURN_FIRE_RATE and slow >= BURN_FIRE_RATE:
                state.burn_active = True
                self._emit(
                    ALERT_BURN_RATE, request_class, "fire",
                    now, fast, slow, consumed,
                )
        elif fast <= BURN_RESOLVE_RATE and slow <= BURN_RESOLVE_RATE:
            state.burn_active = False
            self._emit(
                ALERT_BURN_RATE, request_class, "resolve",
                now, fast, slow, consumed,
            )

        if not state.budget_active:
            if consumed >= 1.0:
                state.budget_active = True
                self._emit(
                    ALERT_BUDGET_EXHAUSTED, request_class, "fire",
                    now, fast, slow, consumed,
                )
        elif consumed < BUDGET_RESOLVE_FRACTION:
            state.budget_active = False
            self._emit(
                ALERT_BUDGET_EXHAUSTED, request_class, "resolve",
                now, fast, slow, consumed,
            )

    def _emit(
        self,
        name: str,
        request_class: str,
        state: str,
        now: float,
        fast: float,
        slow: float,
        consumed: float,
    ) -> None:
        if name not in ALERT_REGISTRY:
            raise TelemetryError(
                f"alert {name!r} is not declared in "
                "repro.telemetry.registry.ALERT_REGISTRY "
                f"(known: {', '.join(ALERT_REGISTRY.names())})"
            )
        if state not in _STATES:
            raise TelemetryError(
                f"alert state must be one of {_STATES}, got {state!r}"
            )
        self.alerts.append(
            Alert(
                name=name,
                request_class=request_class,
                state=state,
                time=now,
                fast_burn=fast,
                slow_burn=slow,
                budget_consumed=consumed,
            )
        )

    # -- queries -----------------------------------------------------------
    def _advance_windows(self, state: _ClassState) -> None:
        """Retire buckets the sim clock has moved past.

        Completions evict lazily inside :meth:`_WindowSum.add`; queries
        issued after the clock advanced beyond the last completion must
        evict against *now* so windowed burn rates decay toward zero
        instead of reporting stale fractions.
        """
        bucket = int(self.clock() / self.bucket_s)
        state.fast.advance(bucket)
        state.slow.advance(bucket)

    def classes(self) -> list[str]:
        return sorted(self._classes)

    def budget_consumed(self, request_class: str) -> float:
        return self._classes[request_class].budget_consumed()

    def budget_report(self) -> dict[str, dict[str, float]]:
        """Per-class budget accounting (JSON-able, deterministic order)."""
        report: dict[str, dict[str, float]] = {}
        for cls in sorted(self._classes):
            state = self._classes[cls]
            self._advance_windows(state)
            fast, slow = state.burn(state.fast), state.burn(state.slow)
            report[cls] = {
                "good": float(state.total_good),
                "bad": float(state.total_bad),
                "objective": state.spec.objective,
                "target_s": state.spec.target_s,
                "budget_consumed": round(state.budget_consumed(), 9),
                "fast_burn": round(fast, 9),
                "slow_burn": round(slow, 9),
            }
        return report

    def alerts_jsonl(self) -> str:
        """Canonical serialization of the alert timeline so far."""
        return alerts_to_jsonl(self.alerts)
