"""Request-class mixes: the ratios of request types in a workload.

A :class:`RequestMix` assigns each request class a weight; the aggregate
RPS of a load pattern is split across classes proportionally.  The default
mixes follow §VII-C; the skewed variants (§VII-E) double or halve the
update-type requests, or shift the priority split for the video pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigurationError

__all__ = ["RequestMix"]


@dataclass(frozen=True)
class RequestMix:
    """Normalised weights over request classes."""

    weights: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.weights:
            raise ConfigurationError("request mix needs at least one class")
        for name, weight in self.weights.items():
            if weight < 0:
                raise ConfigurationError(
                    f"negative weight for {name!r}: {weight}"
                )
        total = sum(self.weights.values())
        if total <= 0:
            raise ConfigurationError("request mix weights sum to zero")
        object.__setattr__(
            self,
            "weights",
            {name: weight / total for name, weight in self.weights.items()},
        )

    def fraction(self, class_name: str) -> float:
        """Normalised share of ``class_name`` (0 if absent)."""
        return self.weights.get(class_name, 0.0)

    def classes(self) -> list[str]:
        return list(self.weights)

    def class_loads(self, rps: float) -> dict[str, float]:
        """Per-class RPS when ``rps`` in aggregate follows this mix."""
        return {name: rps * weight for name, weight in self.weights.items()}

    def scaled(self, class_name: str, factor: float) -> "RequestMix":
        """A new mix with one class's weight multiplied by ``factor``.

        ``factor=2`` doubles and ``factor=0.5`` halves the class -- the
        paper's skewed-load constructions.
        """
        if class_name not in self.weights:
            raise ConfigurationError(f"unknown class {class_name!r}")
        if factor < 0:
            raise ConfigurationError(f"factor must be >= 0, got {factor}")
        weights = dict(self.weights)
        weights[class_name] = weights[class_name] * factor
        return RequestMix(weights)
