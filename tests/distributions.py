"""A service-time distribution that only the tests draw from."""

from dataclasses import dataclass

import numpy as np

from repro.sim.random import Distribution


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential service times with the given mean: the M of M/M/c,
    which the queueing oracles need and no modelled handler uses."""

    mean: float

    def sample(self, rng: np.random.Generator) -> float:
        # numpy's own definition of exponential(scale), draw for draw.
        return self.mean * rng.standard_exponential()

    def scaled(self, factor: float) -> "Exponential":
        return Exponential(self.mean * factor)
