"""The resource controller: threshold-based replica scaling (§V item 4).

The fast path of Ursa's control plane.  Every control interval it reads
each service's recent per-class load from the tracing framework, divides
by the replica count, and compares against the service's load-per-replica
threshold:

* **scale out** when the per-replica load of any class *significantly*
  exceeds its threshold -- Welch's t-test against the load samples
  recorded during exploration absorbs load-fluctuation noise;
* **scale in** when one fewer replica would still keep every class's
  per-replica load below threshold (again judged by the t-test).

The number of replicas requested is always the threshold arithmetic's
``max_j ceil(load_j / lpr_j)`` -- a single multiplication and comparison
per class, which is why Ursa's deployment-time decisions are orders of
magnitude faster than ML inference (Table VI).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.apps.topology import Application
from repro.core.control_loop import ControlLoop
from repro.core.optimizer import ScalingThreshold
from repro.stats.ttest import mean_exceeds

__all__ = ["ResourceController", "ScalingDecision"]

#: Seconds between two scaling passes.
CONTROL_INTERVAL_S = 15.0
#: Metrics windows of load samples each decision reads.
LOOKBACK_WINDOWS = 3
#: Scale-in floor per service.
MIN_REPLICAS = 1


@dataclass
class ScalingDecision:
    """One decision record (kept for diagnostics and the experiments)."""

    time: float
    service: str
    from_replicas: int
    to_replicas: int
    reason: str


class ResourceController(ControlLoop):
    """Per-application scaling loop driven by LPR thresholds."""

    interval_s = CONTROL_INTERVAL_S

    def __init__(
        self,
        app: Application,
        thresholds: Mapping[str, ScalingThreshold],
        alpha: float = 0.05,
    ) -> None:
        super().__init__(app)
        self.thresholds = dict(thresholds)
        self.alpha = float(alpha)
        self.decisions: list[ScalingDecision] = []

    def set_thresholds(self, thresholds: Mapping[str, ScalingThreshold]) -> None:
        """Swap thresholds (after the optimiser recalculates)."""
        self.thresholds = dict(thresholds)

    # ------------------------------------------------------------------
    def _recent_load_samples(self, service: str, classes) -> dict[str, list[float]]:
        """Per-window service-level load rates over the lookback horizon."""
        hub = self.app.hub
        now = self.app.env.now
        window = hub.window_s
        samples: dict[str, list[float]] = {}
        for class_name in classes:
            rates = []
            for k in range(LOOKBACK_WINDOWS, 0, -1):
                t0 = max(0.0, now - k * window)
                t1 = now - (k - 1) * window
                if t1 <= t0:
                    continue
                rates.append(
                    hub.counter_rate(
                        "requests_total",
                        t0,
                        t1,
                        {"service": service, "request": class_name},
                    )
                )
            samples[class_name] = rates
        return samples

    def decide(self, service: str) -> ScalingDecision | None:
        """One scaling decision for one service (the Table VI fast path)."""
        threshold = self.thresholds.get(service)
        if threshold is None:
            return None
        deployment = self.app.services[service].deployment
        current = max(1, deployment.desired_replicas)
        loads = self._recent_load_samples(service, threshold.lpr.keys())
        mean_loads = {
            name: (sum(rates) / len(rates) if rates else 0.0)
            for name, rates in loads.items()
        }
        desired = max(MIN_REPLICAS, threshold.replicas_for(mean_loads))

        if desired > current:
            # Confirm with the t-test that some class really exceeds its
            # recorded threshold load per replica.
            for class_name, rates in loads.items():
                recorded = threshold.load_samples.get(class_name, [])
                if len(rates) < 2 or len(recorded) < 2:
                    continue
                per_replica = [r / current for r in rates]
                if mean_exceeds(per_replica, recorded, alpha=self.alpha):
                    return ScalingDecision(
                        self.app.env.now, service, current, desired,
                        f"scale-out: {class_name} load exceeds threshold",
                    )
            # Threshold arithmetic says more, but the t-test attributes it
            # to noise: hold.
            return None
        if desired < current:
            # Scale in only when the load at the lower count would *not*
            # significantly exceed the recorded threshold samples.
            for class_name, rates in loads.items():
                recorded = threshold.load_samples.get(class_name, [])
                if len(rates) < 2 or len(recorded) < 2:
                    continue
                hypothetical = [r / desired for r in rates]
                if mean_exceeds(hypothetical, recorded, alpha=self.alpha):
                    return None
            return ScalingDecision(
                self.app.env.now, service, current, desired, "scale-in"
            )
        return None

    def step(self) -> list[ScalingDecision]:
        """Evaluate every service once and apply the decisions."""
        applied = []
        for service in self.thresholds:
            decision = self.decide(service)
            if decision is not None and decision.to_replicas != decision.from_replicas:
                self.app.scale(service, decision.to_replicas)
                self.decisions.append(decision)
                applied.append(decision)
        return applied
