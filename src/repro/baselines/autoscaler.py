"""Step autoscaling (the traditional baseline, §VII-B).

CPU-utilisation threshold scaling in the style of AWS step scaling / the
Kubernetes HPA: scale out when a service's utilisation crosses the upper
threshold, scale in below the lower threshold.  Two stock configurations:

* **Auto-a** -- the AWS default (out above 60 %, in below 30 %): frugal
  with resources at the cost of SLA violations;
* **Auto-b** -- manually tuned to protect the tested applications' SLAs
  (out above 30 %, in below 12 %, larger step): low violation rates but
  significantly more CPUs allocated.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.topology import Application
from repro.core.control_loop import ControlLoop
from repro.errors import ConfigurationError

__all__ = ["StepAutoscaler", "auto_a", "auto_b"]

#: Seconds between two scaling passes (both variants); each pass reads
#: the utilisation of the interval just ended.
CONTROL_INTERVAL_S = 30.0
#: Replica bounds per service.
MIN_REPLICAS = 1
MAX_REPLICAS = 64


@dataclass(frozen=True)
class _Config:
    name: str
    scale_out_above: float
    scale_in_below: float
    #: Replicas added per breach (AWS step adjustment).
    step_out: int
    step_in: int


def auto_a() -> _Config:
    """AWS step-scaling default: out > 60 % CPU, in < 30 %."""
    return _Config("auto-a", 0.60, 0.30, step_out=1, step_in=1)


def auto_b() -> _Config:
    """Manually tuned for SLA maintenance: aggressive out, reluctant in."""
    return _Config("auto-b", 0.30, 0.12, step_out=2, step_in=1)


class StepAutoscaler(ControlLoop):
    """Per-service utilisation-threshold scaling loop."""

    interval_s = CONTROL_INTERVAL_S

    def __init__(self, app: Application, config: _Config) -> None:
        if not 0 < config.scale_in_below < config.scale_out_above <= 1:
            raise ConfigurationError(f"need 0 < in < out <= 1, got {config}")
        super().__init__(app)
        self.config = config
        self.decisions = 0

    def decide(self, service: str) -> int | None:
        """Return the new replica count for ``service``, or None to hold.

        This single threshold comparison is the entire decision path --
        the reason autoscaling is the fastest control plane in Table VI.
        """
        hub = self.app.hub
        now = self.app.env.now
        t0 = max(0.0, now - CONTROL_INTERVAL_S)
        if now <= t0:
            return None
        utilization = hub.gauge_mean(
            "cpu_utilization", t0, now, {"service": service}, default=-1.0
        )
        if utilization < 0:
            return None
        current = max(1, self.app.services[service].deployment.desired_replicas)
        if utilization > self.config.scale_out_above:
            return min(MAX_REPLICAS, current + self.config.step_out)
        if utilization < self.config.scale_in_below:
            # Scale in only if the lower count would stay under the upper
            # threshold (protects against flapping).
            target = max(MIN_REPLICAS, current - self.config.step_in)
            if target < current:
                projected = utilization * current / target
                if projected < self.config.scale_out_above:
                    return target
        return None

    def step(self) -> None:
        for service in self.app.services:
            target = self.decide(service)
            if target is not None:
                current = self.app.services[service].deployment.desired_replicas
                if target != current:
                    self.app.scale(service, target)
                    self.decisions += 1
