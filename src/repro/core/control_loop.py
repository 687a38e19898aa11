"""The periodic loop every manager runs: wait, read the hub, decide, scale.

Ursa's resource controller and anomaly detector (§V) and the Sinan,
Firm and step-autoscaling baselines (§VII-B) share one runtime shape:
a simulation process that wakes on a fixed period and calls the
manager's ``step()``.  :class:`ControlLoop` is that process and its
start guard; a subclass sets :attr:`interval_s` and implements
``step()``.
"""

from __future__ import annotations

from repro.apps.topology import Application
from repro.errors import ConfigurationError

__all__ = ["ControlLoop"]


class ControlLoop:
    """Calls ``step()`` every :attr:`interval_s` simulated seconds."""

    #: Seconds between two ``step()`` calls.
    interval_s: float

    def __init__(self, app: Application) -> None:
        self.app = app
        self._started = False

    def first_step_after_s(self) -> float:
        """Wait before the first step: one full metrics window."""
        return self.app.hub.window_s

    def step(self) -> object:
        raise NotImplementedError

    def start(self) -> None:
        """Spawn the loop as a simulation process (once)."""
        if self._started:
            raise ConfigurationError(f"{type(self).__name__} already started")
        self._started = True
        self.app.env.process(self._loop())

    def _loop(self):
        env = self.app.env
        yield env.timeout(self.first_step_after_s())
        while True:
            # Looked up per tick, so a patched ``step`` takes effect.
            self.step()
            yield env.timeout(self.interval_s)
