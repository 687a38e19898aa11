"""Manager factories: attach any of the five §VII systems to an app.

Each factory returns a callable suitable for
:func:`repro.experiments.runner.start_deployment`'s ``attach_manager``:
given the application at the end of its 10 s warm-up, before load
starts, it constructs the manager, applies its initial allocation, and
starts its control loop.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.apps.topology import Application
from repro.baselines.autoscaler import StepAutoscaler, auto_a, auto_b
from repro.baselines.firm import FirmAgent, FirmManager
from repro.baselines.sinan import SinanManager, SinanPredictor
from repro.core.exploration import ExplorationResult, provisioning_for
from repro.core.manager import UrsaManager
from repro.workload.mixes import RequestMix

__all__ = [
    "attach_ursa",
    "attach_sinan",
    "attach_firm",
    "attach_autoscaler",
    "MANAGER_NAMES",
]

MANAGER_NAMES = ("ursa", "sinan", "firm", "auto-a", "auto-b")


def attach_ursa(
    exploration: ExplorationResult,
    class_loads: Mapping[str, float],
) -> Callable[[Application], UrsaManager]:
    """Ursa initialised for the expected per-class loads."""

    def attach(app: Application) -> UrsaManager:
        manager = UrsaManager(app, exploration)
        manager.initialize(class_loads)
        manager.start()
        return manager

    return attach


def attach_sinan(predictor: SinanPredictor) -> Callable[[Application], SinanManager]:
    def attach(app: Application) -> SinanManager:
        manager = SinanManager(app, predictor)
        manager.initialize()
        manager.start()
        return manager

    return attach


def attach_firm(
    agents: Mapping[str, FirmAgent],
) -> Callable[[Application], FirmManager]:
    def attach(app: Application) -> FirmManager:
        manager = FirmManager(app, dict(agents))
        manager.initialize()
        manager.start()
        return manager

    return attach


def attach_autoscaler(
    variant: str,
    mix: RequestMix | None = None,
    rps: float | None = None,
) -> Callable[[Application], StepAutoscaler]:
    """Auto-a / Auto-b, optionally warm-started at a sensible allocation."""
    config = {"auto-a": auto_a, "auto-b": auto_b}[variant]()

    def attach(app: Application) -> StepAutoscaler:
        if mix is not None and rps is not None:
            # Start from a modest allocation; the loop adapts from there.
            start = provisioning_for(
                app.spec, mix, rps, target_utilization=0.5, headroom_replicas=0
            )
            for name, replicas in start.items():
                app.scale(name, replicas)
        scaler = StepAutoscaler(app, config)
        scaler.start()
        return scaler

    return attach
