"""UrsaManager: the facade wiring all five Ursa components (§V, Fig. 5).

1. tracing framework -- the application's :class:`MetricsHub`;
2. exploration controller -- :mod:`repro.core.exploration` (offline);
3. optimisation engine -- :mod:`repro.core.optimizer`;
4. resource controller -- :mod:`repro.core.resource_controller`;
5. anomaly detector -- :mod:`repro.core.anomaly`.

Typical lifecycle::

    exploration = ExplorationController(streams).explore_app(spec, mix, rps, bp)
    app = Application(spec, seed)
    manager = UrsaManager(app, exploration)
    manager.initialize(class_loads={"read-timeline": 25.0, ...})
    manager.start()
    app.env.run(until=...)

The experiments run this lifecycle through
:func:`repro.experiments.runner.start_deployment`, which warms the app up
for 10 s, attaches the manager with
:func:`repro.experiments.managers.attach_ursa`, and starts the load.
"""

from __future__ import annotations

from typing import Mapping

from repro.apps.topology import Application
from repro.core.anomaly import AnomalyDetector
from repro.core.exploration import ExplorationResult
from repro.core.optimizer import OptimizationEngine, OptimizationOutcome
from repro.core.overestimation import OverestimationTracker
from repro.core.resource_controller import ResourceController
from repro.errors import ConfigurationError

__all__ = ["UrsaManager"]

#: Seconds of recent client arrivals a threshold recalculation averages.
OBSERVED_LOAD_HORIZON_S = 300.0


class UrsaManager:
    """Deploy-time resource management for one application."""

    def __init__(self, app: Application, exploration: ExplorationResult) -> None:
        self.app = app
        self.exploration = exploration
        self.engine = OptimizationEngine()
        self.overestimation = OverestimationTracker()
        self.outcome: OptimizationOutcome | None = None
        self.controller = ResourceController(app, thresholds={})
        self.detector = AnomalyDetector(
            app,
            thresholds={},
            on_recalculate=self._recalculate_from_observed_load,
            on_reexplore=self._mark_for_reexploration,
        )
        self.recalculations = 0
        #: Services flagged by latency anomalies for offline re-exploration
        #: (§V item 5).  Exploration runs on a separate deployment, so the
        #: manager surfaces the request rather than blocking the control
        #: loop; the Fig. 14 experiment shows the full cycle.
        self.pending_reexploration: list[str] = []

    # ------------------------------------------------------------------
    def initialize(self, class_loads: Mapping[str, float]) -> OptimizationOutcome:
        """Solve the MIP for ``class_loads`` and apply initial replicas."""
        outcome = self.engine.optimize(self.app.spec, self.exploration, class_loads)
        self.outcome = outcome
        self.controller.set_thresholds(outcome.thresholds)
        self.detector.set_thresholds(outcome.thresholds)
        access = {
            rc.name: rc.access_counts() for rc in self.app.spec.request_classes
        }
        for service, threshold in outcome.thresholds.items():
            service_loads = {}
            for class_name, load in class_loads.items():
                count = access.get(class_name, {}).get(service, 0)
                if count:
                    service_loads[class_name] = load * count
            self.app.scale(service, threshold.replicas_for(service_loads))
        return outcome

    def start(self) -> None:
        """Spawn the resource controller and anomaly detector loops."""
        if self.outcome is None:
            raise ConfigurationError("call initialize() before start()")
        self.controller.start()
        self.detector.start()

    # ------------------------------------------------------------------
    def observed_class_loads(self) -> dict[str, float]:
        """Recent client-level per-class arrival rates from telemetry."""
        now = self.app.env.now
        t0 = max(0.0, now - OBSERVED_LOAD_HORIZON_S)
        if now <= t0:
            return {}
        return {
            rc.name: self.app.hub.counter_rate(
                "client_requests_total", t0, now, {"request": rc.name}
            )
            for rc in self.app.spec.request_classes
        }

    def _mark_for_reexploration(self, services: list[str]) -> None:
        for name in services:
            if name not in self.pending_reexploration:
                self.pending_reexploration.append(name)

    def _recalculate_from_observed_load(self) -> None:
        loads = self.observed_class_loads()
        if not loads or all(v <= 0 for v in loads.values()):
            return
        outcome = self.engine.optimize(self.app.spec, self.exploration, loads)
        self.outcome = outcome
        self.controller.set_thresholds(outcome.thresholds)
        self.detector.set_thresholds(outcome.thresholds)
        self.recalculations += 1
