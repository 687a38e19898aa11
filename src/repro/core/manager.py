"""UrsaManager: the facade wiring all five Ursa components (§V, Fig. 5).

1. tracing framework -- the application's :class:`MetricsHub`;
2. exploration controller -- :mod:`repro.core.exploration` (offline);
3. optimisation engine -- :mod:`repro.core.optimizer`;
4. resource controller -- :mod:`repro.core.resource_controller`;
5. anomaly detector -- :mod:`repro.core.anomaly`.

Typical lifecycle::

    exploration = ExplorationController(streams).explore_app(spec, mix, rps, bp)
    app = Application(spec, ...)
    manager = UrsaManager(app, exploration)
    manager.initialize(class_loads={"read-timeline": 25.0, ...})
    manager.start()
    env.run(until=...)
"""

from __future__ import annotations

import time
from typing import Mapping

from repro.apps.topology import Application
from repro.core.anomaly import AnomalyDetector
from repro.core.exploration import ExplorationResult
from repro.core.optimizer import OptimizationEngine, OptimizationOutcome
from repro.core.overestimation import OverestimationTracker
from repro.core.resource_controller import ResourceController
from repro.errors import ConfigurationError

__all__ = ["UrsaManager"]


class UrsaManager:
    """Deploy-time resource management for one application."""

    def __init__(
        self,
        app: Application,
        exploration: ExplorationResult,
        engine: OptimizationEngine | None = None,
        control_interval_s: float = 15.0,
        anomaly_check_interval_s: float = 120.0,
        ratio_deviation_threshold: float = 1.0,
        sla_violation_threshold: float = 0.10,
    ) -> None:
        self.app = app
        self.exploration = exploration
        self.engine = engine if engine is not None else OptimizationEngine()
        self.overestimation = OverestimationTracker()
        self.outcome: OptimizationOutcome | None = None
        self.controller = ResourceController(
            app, thresholds={}, control_interval_s=control_interval_s
        )
        self.detector = AnomalyDetector(
            app,
            thresholds={},
            on_recalculate=self._recalculate_from_observed_load,
            on_reexplore=self._mark_for_reexploration,
            check_interval_s=anomaly_check_interval_s,
            ratio_deviation_threshold=ratio_deviation_threshold,
            sla_violation_threshold=sla_violation_threshold,
        )
        self.recalculations = 0
        #: Services flagged by latency anomalies for offline re-exploration
        #: (§V item 5).  Exploration runs on a separate deployment, so the
        #: manager surfaces the request rather than blocking the control
        #: loop; the Fig. 14 experiment shows the full cycle.
        self.pending_reexploration: list[str] = []
        self._started = False

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
        if self._started:
            raise ConfigurationError("manager already started")
        self._started = True
        self.controller.start()
        self.detector.start()

    # ------------------------------------------------------------------
    def observed_class_loads(self, horizon_s: float = 300.0) -> dict[str, float]:
        """Recent client-level per-class arrival rates from telemetry."""
        now = self.app.env.now
        t0 = max(0.0, now - horizon_s)
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

    def apply_reexploration(self, exploration: ExplorationResult) -> None:
        """Merge fresh (partial) exploration data and re-optimise.

        Call after running :class:`ExplorationController` for the services
        in :attr:`pending_reexploration`; clears the pending list.
        """
        profiles = dict(self.exploration.profiles)
        profiles.update(exploration.profiles)
        self.exploration = ExplorationResult(
            app_name=self.exploration.app_name, profiles=profiles
        )
        self.pending_reexploration = [
            s for s in self.pending_reexploration
            if s not in exploration.profiles
        ]
        self._recalculate_from_observed_load()

    def _recalculate_from_observed_load(self) -> None:
        loads = self.observed_class_loads()
        if not loads or all(v <= 0 for v in loads.values()):
            return
        outcome = self.engine.optimize(self.app.spec, self.exploration, loads)
        self.outcome = outcome
        self.controller.set_thresholds(outcome.thresholds)
        self.detector.set_thresholds(outcome.thresholds)
        self.recalculations += 1

    # ------------------------------------------------------------------
    # Control-plane latency probes (Table VI)
    # ------------------------------------------------------------------
    def time_deploy_decision(self, repeats: int = 50) -> float:
        """Mean wall-clock seconds for one full fast-path decision pass."""
        if self.outcome is None:
            raise ConfigurationError("call initialize() first")
        # The Table VI probes below intentionally read the host clock: they
        # measure the controller's real compute cost, never simulated state.
        start = time.perf_counter()  # ursalint: disable=SIM001 -- Table VI probe
        for _ in range(repeats):
            for service in self.outcome.thresholds:
                self.controller.decide(service)
        # ursalint: disable=SIM001 -- Table VI probe
        return (time.perf_counter() - start) / repeats

    def time_update_decision(self, class_loads: Mapping[str, float]) -> float:
        """Wall-clock seconds to recompute the optimisation model."""
        start = time.perf_counter()  # ursalint: disable=SIM001 -- Table VI probe
        self.engine.optimize(self.app.spec, self.exploration, class_loads)
        return time.perf_counter() - start  # ursalint: disable=SIM001 -- Table VI probe
