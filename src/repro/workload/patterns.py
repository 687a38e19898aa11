"""Load patterns: time-varying request-per-second profiles (§VII-E).

The paper evaluates three load shapes:

* **constant** -- Poisson arrivals at a fixed RPS;
* **dynamic** -- diurnal patterns (RPS ramps up then down) and bursts
  (sharp 50-125 % increases);
* **skewed** -- same shapes but with a request-class mix that differs from
  the one used during exploration (handled by the mix, not the pattern).

A pattern is a callable ``rate(t) -> float`` giving the aggregate RPS at
simulation time ``t``, with a ``peak`` attribute bounding it.  The
experiments need two: :class:`ConstantLoad` and :class:`DiurnalLoad`
(the dynamic runs use the diurnal shape without a burst component).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["ConstantLoad", "DiurnalLoad"]


@dataclass(frozen=True)
class ConstantLoad:
    """Fixed aggregate RPS."""

    rps: float

    def __post_init__(self) -> None:
        if self.rps <= 0:
            raise ConfigurationError(f"rps must be > 0, got {self.rps}")

    def __call__(self, t: float) -> float:
        return self.rps

    @property
    def peak(self) -> float:
        return self.rps


@dataclass(frozen=True)
class DiurnalLoad:
    """Sinusoidal day/night pattern between ``low`` and ``high`` RPS.

    The rate starts at ``low``, peaks at ``high`` halfway through
    ``period_s``, and returns to ``low`` -- the paper's "gradually
    increases then gradually decreases" shape.
    """

    low: float
    high: float
    period_s: float

    def __post_init__(self) -> None:
        if not 0 < self.low <= self.high:
            raise ConfigurationError(
                f"need 0 < low <= high, got low={self.low}, high={self.high}"
            )
        if self.period_s <= 0:
            raise ConfigurationError(f"period must be > 0, got {self.period_s}")

    def __call__(self, t: float) -> float:
        phase = (t % self.period_s) / self.period_s
        weight = (1.0 - math.cos(2.0 * math.pi * phase)) / 2.0
        return self.low + (self.high - self.low) * weight

    @property
    def peak(self) -> float:
        return self.high
