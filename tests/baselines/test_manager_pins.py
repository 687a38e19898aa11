"""Pins of the five managers' control loops on the tiny two-service app.

Each manager runs one short digested deployment through
``runner.start_deployment``.  The event-trace digest pins every timeout
the manager's loop schedules and every scaling action it takes; the
recorded ``step()`` times pin the loop's schedule directly (first step
one metrics window after the manager starts, then one per control
interval; Ursa's anomaly detector waits its check interval first).
"""

import copy

import pytest

from repro.experiments.managers import (
    attach_autoscaler,
    attach_firm,
    attach_sinan,
    attach_ursa,
)
from repro.experiments.runner import RunOptions, start_deployment
from repro.workload import ConstantLoad, RequestMix
from tests.baselines import tiny
from tests.core.test_manager import synthetic_exploration

RUN_S = 260.0
MIX = RequestMix({"req": 1.0})


def pinned_run(spec, attach):
    """(digest, final replicas, [(loop, time of each step() call)])."""
    steps = []

    def attach_recording(app):
        manager = attach(app)
        loops = [getattr(manager, "controller", manager)]
        if hasattr(manager, "detector"):
            loops.append(manager.detector)
        for loop in loops:
            step = loop.step

            def recording(step=step, name=type(loop).__name__):
                steps.append((name, app.env.now))
                return step()

            loop.step = recording
        return manager

    run = start_deployment(
        spec, MIX, ConstantLoad(60.0), attach_recording,
        RunOptions(seed=3, digest=True), load_seed=4, load_stop_s=RUN_S - 20.0,
    )
    run.app.env.run(until=RUN_S)
    replicas = {name: run.app.replicas(name) for name in run.app.services}
    return run.run_digest(), replicas, steps


def every(name, first, interval):
    return [(name, float(t)) for t in range(first, int(RUN_S), interval)]


def test_ursa_pin():
    digest, replicas, steps = pinned_run(
        tiny.tiny_spec(0.3),
        attach_ursa(synthetic_exploration(), {"req": 60.0}),
    )
    assert digest == "45e1fcc1b558a7a94ff70848e92a8d9b"
    assert replicas == {"front": 1, "work": 1}
    # Controller: one 60 s window after the 10 s attach, then every 15 s;
    # detector: every 120 s.  At 130 s and 250 s the detector's timeout
    # was scheduled first, so it steps first.
    assert steps == sorted(
        every("ResourceController", 70, 15) + every("AnomalyDetector", 130, 120),
        key=lambda s: (s[1], s[0] != "AnomalyDetector"),
    )


AUTOSCALER_PINS = {
    "auto-a": ("af9a81cf15d13d42595c72c66f2b5646", {"front": 1, "work": 1}),
    "auto-b": ("dff3d68267265ee7ec57c43a1806fd61", {"front": 1, "work": 4}),
}


@pytest.mark.parametrize("variant", sorted(AUTOSCALER_PINS))
def test_autoscaler_pin(variant):
    digest, replicas, steps = pinned_run(
        tiny.tiny_spec(0.3), attach_autoscaler(variant)
    )
    assert (digest, replicas) == AUTOSCALER_PINS[variant]
    assert steps == every("StepAutoscaler", 70, 30)


def test_sinan_pin(sinan_predictor):
    digest, replicas, steps = pinned_run(
        tiny.tiny_spec(tiny.SINAN_SLA_S), attach_sinan(sinan_predictor)
    )
    assert digest == "3ca8a0185e54f2ec0483213592bfd46c"
    assert replicas == {"front": 6, "work": 1}
    assert steps == every("SinanManager", 70, 30)


def test_firm_pin(firm_trained):
    # Firm keeps learning online: deploy a copy of the trained agents.
    agents = copy.deepcopy(firm_trained[0])
    digest, replicas, steps = pinned_run(
        tiny.tiny_spec(tiny.FIRM_SLA_S), attach_firm(agents)
    )
    assert digest == "86890f6858624815629ed878c00cc87c"
    assert replicas == {"front": 2, "work": 1}
    assert steps == every("FirmManager", 70, 30)
