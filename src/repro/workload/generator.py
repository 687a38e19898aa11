"""Open-loop load generation (the Locust substitute).

Each request class gets an independent non-homogeneous Poisson arrival
process with rate ``pattern(t) * mix.fraction(class)``.  Arrivals are
generated by thinning against the pattern's peak rate, which is exact for
any bounded rate function.

Thinning draws candidates at the envelope rate ``peak * fraction *
MAX_MULTIPLIER`` and rejects most of them, so a naive implementation
schedules an engine timeout per *rejected* candidate — a large fraction of
all simulation events at off-peak rates.  The batched scan below instead
advances a plain-float arrival cursor through rejected candidates in a
tight Python loop, consuming the RNG stream in exactly the per-candidate
order (one exponential, then one uniform, per candidate), and only touches
the engine for *accepted* arrivals (plus one bounded wake per
``batch_candidates`` consecutive rejections, so a run cannot stall in the
scan).  Arrival times are bit-identical to the per-candidate loop; only
the rejected-candidate engine events disappear from the trace.
"""

from __future__ import annotations

from typing import Callable

from repro.apps.topology import Application
from repro.errors import ConfigurationError
from repro.sim.random import RandomStreams
from repro.workload.mixes import RequestMix

__all__ = ["BATCH_CANDIDATES", "LoadGenerator", "MAX_MULTIPLIER"]

#: Ceiling of the runtime rate multiplier; the thinning envelope reserves
#: this much headroom so intensity changes at runtime stay exact.
MAX_MULTIPLIER = 4.0

#: Default candidates scanned per engine wake by the batched thinning loop.
BATCH_CANDIDATES = 256


class LoadGenerator:
    """Drives an :class:`~repro.apps.topology.Application` with open-loop load.

    ``pattern`` is a callable ``rate(t) -> float`` with a ``peak``
    attribute (see :mod:`repro.workload.patterns`).  Arrivals for classes
    absent from the mix are never generated.
    """

    def __init__(
        self,
        app: Application,
        pattern: Callable[[float], float],
        mix: RequestMix,
        streams: RandomStreams,
        stop_at_s: float | None = None,
        max_outstanding: int | None = None,
        batch_candidates: int = BATCH_CANDIDATES,
    ) -> None:
        peak = getattr(pattern, "peak", None)
        if peak is None or peak <= 0:
            raise ConfigurationError(
                "load pattern must expose a positive .peak attribute"
            )
        unknown = [c for c in mix.classes() if c not in app.request_classes]
        if unknown:
            raise ConfigurationError(
                f"mix references classes not in app {app.spec.name!r}: {unknown}"
            )
        self.app = app
        self.pattern = pattern
        self.mix = mix
        self.streams = streams
        self.stop_at_s = stop_at_s
        #: Runtime intensity knob in [0, MAX_MULTIPLIER]; the exploration
        #: controller raises it to probe per-replica loads beyond what the
        #: base trace can produce (replaying the trace "hotter").
        self.rate_multiplier = 1.0
        #: Bounded client concurrency (a Locust-style fixed user pool).
        #: Arrivals while this many requests are outstanding are shed; the
        #: §III chain experiments use it so overload queues at the client,
        #: not inside the first tier.
        self.max_outstanding = max_outstanding
        #: Candidates scanned per engine wake in the batched thinning loop.
        #: ``<= 1`` selects the legacy per-candidate loop, which schedules
        #: an engine event for every candidate and re-reads
        #: :attr:`rate_multiplier` at each candidate's simulated time --
        #: required when a controller calls :meth:`set_rate_multiplier`
        #: mid-run (the batched scan pre-commits accept/reject decisions up
        #: to the next accepted arrival, so it samples the multiplier at
        #: wake time instead).
        self.batch_candidates = int(batch_candidates)
        self.outstanding = 0
        self.shed = 0
        self.generated: dict[str, int] = {c: 0 for c in mix.classes()}
        #: One bound completion callback shared by every tracked request
        #: (callbacks receive the completed event, which we ignore), so
        #: the arrival loops do not build a fresh closure per accept.
        self._done_callback = self._on_done

    def _on_done(self, _event: object = None) -> None:
        self.outstanding = max(0, self.outstanding - 1)

    def set_rate_multiplier(self, multiplier: float) -> None:
        if not 0.0 <= multiplier <= MAX_MULTIPLIER:
            raise ConfigurationError(
                f"multiplier must be in [0, {MAX_MULTIPLIER}], got {multiplier}"
            )
        self.rate_multiplier = float(multiplier)

    def start(self) -> None:
        """Spawn one arrival process per request class."""
        arrivals = (
            self._arrivals_batched
            if self.batch_candidates > 1
            else self._arrivals_per_candidate
        )
        for class_name in self.mix.classes():
            fraction = self.mix.fraction(class_name)
            if fraction > 0:
                self.app.env.process(arrivals(class_name, fraction))

    def _arrivals_per_candidate(self, class_name: str, fraction: float):
        """Thinning-based non-homogeneous Poisson arrivals for one class.

        The thinning envelope reserves headroom for the rate multiplier, so
        intensity changes at runtime stay exact.  Every candidate -- accepted
        or rejected -- is an engine timeout; :meth:`_arrivals_batched` is
        the fast path when the multiplier is fixed for the whole run.
        """
        env = self.app.env
        rng = self.streams.stream(f"workload:{class_name}")
        envelope = self.pattern.peak * fraction * MAX_MULTIPLIER
        scale = 1.0 / envelope
        while True:
            # exponential(scale) as numpy defines it, bit for bit.
            gap = scale * rng.standard_exponential()
            yield env.timeout(gap)
            if self.stop_at_s is not None and env.now >= self.stop_at_s:
                return
            rate_now = self.pattern(env.now) * fraction * self.rate_multiplier
            if rng.random() <= rate_now / envelope:
                if (
                    self.max_outstanding is not None
                    and self.outstanding >= self.max_outstanding
                ):
                    self.shed += 1
                    continue
                _request, done = self.app.submit(class_name)
                self.generated[class_name] += 1
                if self.max_outstanding is not None:
                    self.outstanding += 1
                    done._add_callback(self._done_callback)

    def _arrivals_batched(self, class_name: str, fraction: float):
        """Batched thinning: engine events for accepted arrivals only.

        Scans candidates in a plain Python loop, drawing exactly the same
        RNG values in exactly the same order as the per-candidate loop (one
        exponential gap then one acceptance uniform per candidate, and no
        uniform for the candidate that crosses ``stop_at_s``), then wakes
        the engine at the accepted arrival's absolute time via
        ``timeout_at`` so the fire time is bit-identical to summing the
        per-candidate timeouts.  A wake is also emitted after
        ``batch_candidates`` consecutive rejections, bounding how far the
        cursor runs ahead of the clock between engine events.

        The shed decision (``max_outstanding``) still happens at the
        arrival's fire time, reading live ``outstanding`` state, exactly as
        in the per-candidate loop.  :attr:`rate_multiplier` is sampled when
        the scan runs (at wake time) rather than per candidate -- identical
        behaviour whenever the multiplier is constant over the run.
        """
        env = self.app.env
        rng = self.streams.stream(f"workload:{class_name}")
        envelope = self.pattern.peak * fraction * MAX_MULTIPLIER
        scale = 1.0 / envelope
        pattern = self.pattern
        standard_exponential = rng.standard_exponential
        uniform = rng.random
        chunk = self.batch_candidates
        stop_at = self.stop_at_s
        timeout_at = env.timeout_at
        t = env.now
        while True:
            multiplier = self.rate_multiplier
            accepted = False
            for _ in range(chunk):
                t += scale * standard_exponential()
                if stop_at is not None and t >= stop_at:
                    # The per-candidate loop wakes at the crossing candidate
                    # and returns without drawing its acceptance uniform.
                    yield timeout_at(t)
                    return
                rate_now = pattern(t) * fraction * multiplier
                if uniform() <= rate_now / envelope:
                    accepted = True
                    break
            yield timeout_at(t)
            if accepted:
                if (
                    self.max_outstanding is not None
                    and self.outstanding >= self.max_outstanding
                ):
                    self.shed += 1
                    continue
                _request, done = self.app.submit(class_name)
                self.generated[class_name] += 1
                if self.max_outstanding is not None:
                    self.outstanding += 1
                    done._add_callback(self._done_callback)
