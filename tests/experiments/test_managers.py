"""Tests for the manager-attachment factories used by the benchmarks."""

import pytest

from repro.apps.topology import AppSpec, Application, RequestClass, SlaSpec
from repro.cluster import ClusterOptions
from repro.core.exploration import ExplorationResult, LprOption, ServiceProfile
from repro.experiments.managers import MANAGER_NAMES, attach_autoscaler, attach_ursa
from repro.net.messages import Call, CallMode
from repro.services.spec import ServiceSpec
from repro.sim import LogNormal
from repro.stats.distributions import DEFAULT_PERCENTILE_GRID
from repro.workload.mixes import RequestMix

GRID = DEFAULT_PERCENTILE_GRID


def tiny_spec():
    return AppSpec(
        "tiny",
        services=(
            ServiceSpec("front", cpus_per_replica=1,
                        handlers={"req": LogNormal(0.002, 0.4)}),
            ServiceSpec("work", cpus_per_replica=1,
                        handlers={"req": LogNormal(0.010, 0.5)}),
        ),
        request_classes=(
            RequestClass("req", Call("front", CallMode.RPC, (Call("work"),)),
                         SlaSpec(99.0, 0.3)),
        ),
    )


def synthetic_exploration():
    def options(base):
        out = []
        for k, lpr in enumerate([15.0, 30.0, 60.0]):
            rows = [base * (1 + k) * (1 + 0.1 * i) for i in range(len(GRID))]
            out.append(LprOption(3 - k, {"req": lpr},
                                 {"req": [lpr, lpr * 1.02]},
                                 {"req": rows}, 0.4))
        return out

    return ExplorationResult("tiny", {
        "front": ServiceProfile("front", 1, options(0.004), 30, 1800, "sla"),
        "work": ServiceProfile("work", 1, options(0.015), 30, 1800, "sla"),
    })


def make_app():
    return Application(
        tiny_spec(), 61, initial_replicas=1,
        cluster_options=ClusterOptions(nodes=1, node_cpus=64, node_memory_gb=128),
    )


def test_manager_names_cover_all_five():
    assert set(MANAGER_NAMES) == {"ursa", "sinan", "firm", "auto-a", "auto-b"}


def test_attach_ursa_initialises_and_starts():
    app = make_app()
    app.env.run(until=10)
    attach = attach_ursa(synthetic_exploration(), {"req": 45.0})
    manager = attach(app)
    assert manager.outcome is not None
    # Replicas applied according to the chosen thresholds.
    for name, threshold in manager.outcome.thresholds.items():
        expected = threshold.replicas_for({"req": 45.0})
        assert app.services[name].deployment.desired_replicas == expected


@pytest.mark.parametrize("variant", ["auto-a", "auto-b"])
def test_attach_autoscaler_variants(variant):
    app = make_app()
    app.env.run(until=10)
    attach = attach_autoscaler(variant, RequestMix({"req": 1.0}), rps=40.0)
    scaler = attach(app)
    assert scaler.config.name == variant
    # Warm start provisioned something sensible.
    assert app.services["work"].deployment.desired_replicas >= 1


def test_attach_autoscaler_unknown_variant():
    with pytest.raises(KeyError):
        attach_autoscaler("auto-z")
