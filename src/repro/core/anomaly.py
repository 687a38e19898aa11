"""The anomaly detector (§V item 5): load- and latency-anomaly triggers.

Two anomaly kinds drive two escalation levels:

* **Load anomalies** -- the request-class mix drifts from the one the
  thresholds were computed for, measured by the *request ratio deviation*:
  with per-class service loads ``L_j`` and per-replica thresholds ``t_j``,
  replica counts are driven by ``max_j L_j / t_j``; when that maximum
  diverges from the average utilisation ratio the provisioning is skewed
  and resources are wasted.  Crossing the user threshold asks the
  optimisation engine to *recalculate* thresholds from existing
  exploration data.
* **Latency anomalies** -- the end-to-end SLA violation rate over the last
  evaluation window exceeds its threshold, meaning the recorded latency
  distributions no longer describe the service: the detector requests
  *re-exploration* of the offending services.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from repro.apps.topology import Application
from repro.core.control_loop import ControlLoop
from repro.core.optimizer import ScalingThreshold

__all__ = ["AnomalyDetector", "AnomalyEvent", "request_ratio_deviation"]

#: Seconds between two checks; each check reads the interval just ended.
CHECK_INTERVAL_S = 120.0
#: Request-ratio deviation above which thresholds are recalculated.
RATIO_DEVIATION_THRESHOLD = 1.0
#: Windowed SLA violation rate above which services are re-explored.
SLA_VIOLATION_THRESHOLD = 0.10


def request_ratio_deviation(
    loads: Mapping[str, float], thresholds: Mapping[str, float]
) -> float:
    """Imbalance of per-class utilisation ratios at one service.

    Returns ``max_j (L_j / t_j) / mean_j (L_j / t_j) - 1``: zero when all
    classes load the service proportionally to their thresholds (the mix
    matches exploration), growing as one class dominates.
    """
    ratios = []
    for class_name, load in loads.items():
        threshold = thresholds.get(class_name, 0.0)
        if threshold > 0 and load >= 0:
            ratios.append(load / threshold)
    positive = [r for r in ratios if r > 0]
    if not positive:
        return 0.0
    mean = sum(positive) / len(positive)
    if mean <= 0:
        return 0.0
    return max(positive) / mean - 1.0


@dataclass
class AnomalyEvent:
    time: float
    kind: str  # "load" | "latency"
    detail: str


class AnomalyDetector(ControlLoop):
    """Periodic anomaly checks over the tracing framework's metrics."""

    interval_s = CHECK_INTERVAL_S

    def __init__(
        self,
        app: Application,
        thresholds: Mapping[str, ScalingThreshold],
        on_recalculate: Callable[[], None] | None = None,
        on_reexplore: Callable[[list[str]], None] | None = None,
    ) -> None:
        super().__init__(app)
        self.thresholds = dict(thresholds)
        self.on_recalculate = on_recalculate
        self.on_reexplore = on_reexplore
        self.events: list[AnomalyEvent] = []

    def set_thresholds(self, thresholds: Mapping[str, ScalingThreshold]) -> None:
        self.thresholds = dict(thresholds)

    def first_step_after_s(self) -> float:
        """The first check reads a full interval, like every later one."""
        return CHECK_INTERVAL_S

    # ------------------------------------------------------------------
    def check_load_anomaly(self, t0: float, t1: float) -> list[str]:
        """Services whose request-ratio deviation crossed the threshold."""
        skewed = []
        for service, threshold in self.thresholds.items():
            loads = {}
            for class_name in threshold.lpr:
                loads[class_name] = self.app.hub.counter_rate(
                    "requests_total",
                    t0,
                    t1,
                    {"service": service, "request": class_name},
                )
            deviation = request_ratio_deviation(loads, threshold.lpr)
            if deviation > RATIO_DEVIATION_THRESHOLD:
                skewed.append(service)
        return skewed

    def check_latency_anomaly(self, t0: float, t1: float) -> float:
        """Windowed SLA violation rate over ``[t0, t1)``."""
        return self.app.windowed_violation_rate(t0, t1, window_s=t1 - t0)

    def step(self) -> None:
        now = self.app.env.now
        t0 = max(0.0, now - CHECK_INTERVAL_S)
        if t0 >= now:
            return
        skewed = self.check_load_anomaly(t0, now)
        if skewed:
            self.events.append(
                AnomalyEvent(now, "load", f"request-ratio deviation at {skewed}")
            )
            if self.on_recalculate is not None:
                self.on_recalculate()
        violation_rate = self.check_latency_anomaly(t0, now)
        if violation_rate > SLA_VIOLATION_THRESHOLD:
            self.events.append(
                AnomalyEvent(
                    now, "latency", f"SLA violation rate {violation_rate:.3f}"
                )
            )
            if self.on_reexplore is not None:
                self.on_reexplore(sorted(self.thresholds))
