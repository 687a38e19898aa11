"""Table VI -- control-plane latency (milliseconds).

Measures the wall-clock cost of each system's decision paths on this
machine:

* **Deploy** (the per-interval decision): Ursa's threshold check per
  service; Sinan's candidate batch through the MLP + GBDT; Firm's
  per-service actor forward passes; the autoscaler's utilisation
  comparison.
* **Update** (adapting to changed logic/mix): Ursa re-solves the MIP;
  Firm runs an online RL update iteration (the paper notes thousands of
  iterations are needed for full adaptation); Sinan requires a full
  retraining, reported out-of-band (the paper lists N/A); the autoscaler
  has nothing to update.

Absolute numbers depend on the host; the shape to reproduce is
``autoscaler < Ursa << Firm << Sinan`` for deployment and
``Ursa << Firm-per-iteration`` for updates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.baselines.autoscaler import StepAutoscaler, auto_a
from repro.baselines.firm import STATE_DIM, FirmManager
from repro.baselines.firm import controller as firm_controller
from repro.baselines.sinan import SinanManager
from repro.core.manager import UrsaManager
from repro.experiments import artifacts
from repro.experiments.report import render_table
from repro.experiments.runner import RunOptions, scale_profile, start_deployment
from repro.experiments.store import RunMeta
from repro.workload.defaults import default_mix_for
from repro.workload.patterns import ConstantLoad

__all__ = [
    "ControlPlaneLatency",
    "run_table06",
    "time_decisions",
    "experiment_meta",
]

#: Default seed for the warmed deployments the timings run on.
TABLE6_SEED = 31


@dataclass
class ControlPlaneLatency:
    """All measurements in milliseconds."""

    deploy_ms: dict[str, float]
    update_ms: dict[str, float | None]

    def render(self) -> str:
        systems = ["ursa", "sinan", "firm", "autoscaling"]
        rows = [
            ["Deploy"] + [f"{self.deploy_ms[s]:.3f}" for s in systems],
            ["Update"]
            + [
                "N/A" if self.update_ms[s] is None else f"{self.update_ms[s]:.1f}"
                for s in systems
            ],
        ]
        return render_table(
            ["", *systems], rows, title="Table VI: control plane latency (ms)"
        )


def run_table06(
    app_name: str = "social-network", seed: int = TABLE6_SEED, warm_s: float = 150.0
) -> ControlPlaneLatency:
    """Measure decision latencies on warmed-up deployments.

    Each system gets its own deployment, started by
    :func:`~repro.experiments.runner.start_deployment` with constant load
    on ``seed + 1`` until ``warm_s``.  The manager is initialised at the
    10 s warm-up, before load starts, but never started: once the run
    reaches ``warm_s``, :func:`time_decisions` times its decisions.
    """
    spec = artifacts.app_spec(app_name)
    mix = default_mix_for(app_name)
    rps = artifacts.app_rps(app_name)
    exploration = artifacts.exploration_result(app_name)
    predictor = artifacts.sinan_predictor(app_name)
    agents = artifacts.firm_agents(app_name)

    options = RunOptions(seed=seed)

    def warmed(attach):
        """The manager ``attach`` returns, on a deployment run to ``warm_s``."""
        run = start_deployment(
            spec,
            mix,
            ConstantLoad(rps),
            attach,
            options,
            load_seed=seed + 1,
            load_stop_s=warm_s,
        )
        run.app.env.run(until=warm_s)
        return run.manager

    class_loads = mix.class_loads(rps)

    def init_ursa(app):
        manager = UrsaManager(app, exploration)
        manager.initialize(class_loads)
        return manager

    def init_sinan(app):
        manager = SinanManager(app, predictor)
        manager.initialize()
        return manager

    def init_firm(app):
        manager = FirmManager(app, agents)
        manager.initialize()
        return manager

    return time_decisions(
        warmed(init_ursa),
        warmed(init_sinan),
        warmed(init_firm),
        warmed(lambda app: StepAutoscaler(app, auto_a())),
        class_loads,
    )


def _mean_ms(action: Callable[[], object], repeats: int) -> float:
    """Mean host wall-clock milliseconds of one ``action()`` call."""
    start = time.perf_counter()
    for _ in range(repeats):
        action()
    return (time.perf_counter() - start) / repeats * 1000.0


def time_decisions(
    ursa: UrsaManager,
    sinan: SinanManager,
    firm: FirmManager,
    scaler: StepAutoscaler,
    class_loads: Mapping[str, float],
) -> ControlPlaneLatency:
    """Time each system's decision paths on its (initialised) deployment.

    Deploy: Ursa's threshold check for every service (50 passes),
    Sinan's candidate batch (10), Firm's per-service forward passes
    (20) and the autoscaler's comparison for every service (100).
    Update: one Ursa MIP re-solve for ``class_loads`` and one Firm
    online RL iteration, its replay buffers first filled to 64
    transitions so the update trains on a full batch.
    """
    now = firm.app.env.now
    t0 = max(0.0, now - firm_controller.CONTROL_INTERVAL_S)
    rng = np.random.default_rng(0)
    for agent in firm.agents.values():
        if len(agent.buffer) < 64:
            for _ in range(64):
                state = rng.uniform(0, 1, STATE_DIM)
                agent.remember(state, 0.0, -1.0, state)

    def ursa_deploy() -> None:
        for service in ursa.controller.thresholds:
            ursa.controller.decide(service)

    def firm_deploy() -> None:
        for service in firm.agents:
            firm.decide(service, t0, now)

    def scaler_deploy() -> None:
        for service in scaler.app.services:
            scaler.decide(service)

    def ursa_update() -> None:
        ursa.engine.optimize(ursa.app.spec, ursa.exploration, class_loads)

    def firm_update() -> None:
        for agent in firm.agents.values():
            agent.update()

    deploy_ms = {
        "ursa": _mean_ms(ursa_deploy, repeats=50),
        "sinan": _mean_ms(sinan.decide, repeats=10),
        "firm": _mean_ms(firm_deploy, repeats=20),
        "autoscaling": _mean_ms(scaler_deploy, repeats=100),
    }
    update_ms: dict[str, float | None] = {
        "ursa": _mean_ms(ursa_update, repeats=1),
        "sinan": None,  # full retraining; not an online operation
        "firm": _mean_ms(firm_update, repeats=1),
        # Nothing to update: the same threshold check.
        "autoscaling": deploy_ms["autoscaling"],
    }
    return ControlPlaneLatency(deploy_ms=deploy_ms, update_ms=update_ms)


def experiment_meta(
    result: ControlPlaneLatency,
    app_name: str = "social-network",
    seed: int = TABLE6_SEED,
) -> RunMeta:
    """Provenance sidecar for Table VI.

    The table reports host wall-clock timings, so ``deterministic`` is
    False: regeneration is expected to change the numbers and the store
    must not flag the drift.  What *is* pinned is the identity (scale,
    seed, package version) under which the timings were taken.
    """
    return RunMeta(
        experiment="table06",
        scale=scale_profile().name,
        seeds={app_name: seed},
        deterministic=False,
        summaries={
            system: {"deploy_ms": round(ms, 6)}
            for system, ms in sorted(result.deploy_ms.items())
        },
    )
