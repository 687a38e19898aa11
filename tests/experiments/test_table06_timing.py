"""Table VI's timing helper on small warmed deployments of all four systems."""

import copy
import math

from repro.baselines.autoscaler import StepAutoscaler, auto_a
from repro.baselines.firm import FirmManager
from repro.baselines.sinan import SinanManager
from repro.core.manager import UrsaManager
from repro.experiments.runner import RunOptions, start_deployment
from repro.experiments.table06_control_plane import time_decisions
from repro.workload import ConstantLoad, RequestMix
from tests.baselines import tiny
from tests.core.test_manager import synthetic_exploration

LOADS = {"req": 60.0}


def warmed(spec, attach):
    """``attach``'s manager, initialised but not started, at 100 s."""
    run = start_deployment(
        spec, RequestMix({"req": 1.0}), ConstantLoad(60.0), attach,
        RunOptions(seed=8), load_seed=9, load_stop_s=100.0,
    )
    run.app.env.run(until=100.0)
    return run.manager


def test_time_decisions_on_tiny_deployments(sinan_predictor, firm_trained):
    def init_ursa(app):
        manager = UrsaManager(app, synthetic_exploration())
        manager.initialize(LOADS)
        return manager

    def init_sinan(app):
        manager = SinanManager(app, sinan_predictor)
        manager.initialize()
        return manager

    agents = copy.deepcopy(firm_trained[0])  # the update trains them

    def init_firm(app):
        manager = FirmManager(app, agents)
        manager.initialize()
        return manager

    latency = time_decisions(
        warmed(tiny.tiny_spec(0.3), init_ursa),
        warmed(tiny.tiny_spec(tiny.SINAN_SLA_S), init_sinan),
        warmed(tiny.tiny_spec(tiny.FIRM_SLA_S), init_firm),
        warmed(tiny.tiny_spec(0.3), lambda app: StepAutoscaler(app, auto_a())),
        LOADS,
    )
    systems = ("ursa", "sinan", "firm", "autoscaling")
    assert set(latency.deploy_ms) == set(latency.update_ms) == set(systems)
    for system in systems:
        assert math.isfinite(latency.deploy_ms[system])
        assert latency.deploy_ms[system] > 0
    assert latency.update_ms["sinan"] is None
    for system in ("ursa", "firm", "autoscaling"):
        assert math.isfinite(latency.update_ms[system])
        assert latency.update_ms[system] > 0
    # The update trained on a full batch: the buffers were filled first.
    assert all(len(agent.buffer) >= 64 for agent in agents.values())
    assert "Table VI" in latency.render()
