"""Discrete-event simulation kernel (SimPy-style, self-contained).

Public surface:

* :class:`~repro.sim.engine.Environment`, :class:`~repro.sim.engine.Event`,
  :class:`~repro.sim.engine.Process`, :class:`~repro.sim.engine.Timeout`
  -- the event loop.
* :class:`~repro.sim.resources.Resource`, :class:`~repro.sim.resources.Store`,
  :class:`~repro.sim.resources.PriorityStore` -- shared resources.
* :class:`~repro.sim.random.RandomStreams` and the distribution classes --
  reproducible stochastic inputs.
* :class:`~repro.sim.trace.RunDigest` -- the hook for
  ``Environment(trace=...)``, which hands it buffers of
  ``(when, priority, seq, event type)`` rows (reproducibility checks,
  run fingerprints next to ``results/``).
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    SimulationError,
    Timeout,
)
from repro.sim.random import (
    Constant,
    Distribution,
    LogNormal,
    Mixture,
    RandomStreams,
)
from repro.sim.resources import PriorityStore, Resource, Store
from repro.sim.trace import RunDigest

__all__ = [
    "AllOf",
    "AnyOf",
    "Constant",
    "Distribution",
    "Environment",
    "Event",
    "LogNormal",
    "Mixture",
    "PriorityStore",
    "Process",
    "RandomStreams",
    "Resource",
    "RunDigest",
    "SimulationError",
    "Store",
    "Timeout",
]
