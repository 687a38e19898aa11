"""Overestimation mitigation (§IV, "Mitigating latency overestimation").

Theorem 1's sum-of-percentiles is an upper bound; using it raw would
over-provision.  Following the paper, Ursa records the ratio of *actual*
end-to-end latency to the bound during exploration and deployment, and
estimates the true latency as ``bound x expected overestimation ratio``.
The Fig. 9/10 experiments compare this estimate against measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["OverestimationTracker"]


@dataclass
class OverestimationTracker:
    """Tracks per-class measured/bound ratios with an exponential average.

    ``alpha`` is the EWMA weight of the newest observation.  Before any
    observation the ratio defaults to 1.0 (use the bound as-is).
    """

    alpha: float = 0.3
    _ratios: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ConfigurationError(f"alpha must be in (0, 1], got {self.alpha}")

    def observe(self, request_class: str, measured: float, bound: float) -> None:
        """Record one (measured latency, predicted bound) pair."""
        if measured < 0:
            raise ConfigurationError(f"measured latency must be >= 0: {measured}")
        if bound <= 0:
            raise ConfigurationError(f"bound must be > 0: {bound}")
        ratio = measured / bound
        previous = self._ratios.get(request_class)
        if previous is None:
            self._ratios[request_class] = ratio
        else:
            self._ratios[request_class] = (
                self.alpha * ratio + (1.0 - self.alpha) * previous
            )

    def ratio(self, request_class: str) -> float:
        """Expected measured/bound ratio (1.0 when nothing observed)."""
        return self._ratios.get(request_class, 1.0)

    def estimate(self, request_class: str, bound: float) -> float:
        """Estimated actual latency for a predicted ``bound``."""
        if bound <= 0:
            raise ConfigurationError(f"bound must be > 0: {bound}")
        return bound * self.ratio(request_class)
