"""Tests for the M/M/c formulas, incl. simulator-vs-theory validation."""

import pytest

from repro.apps.topology import AppSpec, Application, RequestClass, SlaSpec
from repro.cluster import ClusterOptions
from repro.errors import ConfigurationError
from repro.net.messages import Call
from repro.services.spec import ServiceSpec
from repro.services import base
from repro.sim import RandomStreams
from tests.distributions import Exponential
from tests.stats.queueing_oracle import (
    erlang_c,
    mm1_response_percentile,
    mmc_mean_response,
    mmc_mean_wait,
    mmc_utilization,
    servers_for_target_wait,
)
from repro.workload import ConstantLoad, LoadGenerator, RequestMix


def test_erlang_c_known_values():
    # Classic check: offered load 2 Erlangs on 3 servers.
    p = erlang_c(arrival_rate=2.0, service_rate=1.0, servers=3)
    assert p == pytest.approx(0.4444, abs=1e-3)
    # Single server: P(wait) = rho.
    assert erlang_c(0.7, 1.0, 1) == pytest.approx(0.7)


def test_mm1_mean_wait_formula():
    # M/M/1: W_q = rho / (mu - lambda).
    lam, mu = 0.8, 1.0
    assert mmc_mean_wait(lam, mu, 1) == pytest.approx(lam / mu / (mu - lam))


def test_mean_response_adds_service_time():
    lam, mu = 1.0, 2.0
    assert mmc_mean_response(lam, mu, 1) == pytest.approx(
        mmc_mean_wait(lam, mu, 1) + 0.5
    )


def test_utilization():
    assert mmc_utilization(3.0, 1.0, 4) == pytest.approx(0.75)


def test_instability_rejected():
    with pytest.raises(ConfigurationError):
        mmc_mean_wait(2.0, 1.0, 2)
    with pytest.raises(ConfigurationError):
        erlang_c(0, 1.0, 1)


def test_servers_for_target_wait_monotone():
    few = servers_for_target_wait(10.0, 1.0, target_wait_s=1.0)
    many = servers_for_target_wait(10.0, 1.0, target_wait_s=0.01)
    assert many >= few >= 11
    with pytest.raises(ConfigurationError):
        servers_for_target_wait(10.0, 1.0, 0)


def test_mm1_percentile():
    lam, mu = 0.5, 1.0
    # Median of Exp(mu - lam): ln(2) / 0.5.
    assert mm1_response_percentile(lam, mu, 50.0) == pytest.approx(
        1.3863, abs=1e-3
    )
    with pytest.raises(ConfigurationError):
        mm1_response_percentile(0.5, 1.0, 100)


@pytest.mark.parametrize(
    "cpus,rps", [(1, 60.0), (2, 140.0), (4, 300.0)]
)
def test_simulator_matches_erlang_c(cpus, rps, monkeypatch):
    """A single service with exponential work is an M/M/c queue; the
    simulated mean response must match theory within sampling error."""
    service_time = 0.010  # mean seconds -> mu = 100/s per core
    spec = AppSpec(
        "mmc",
        services=(
            ServiceSpec(
                "svc",
                cpus_per_replica=cpus,
                handlers={"r": Exponential(service_time)},
                threads_per_cpu=64,  # threads never the bottleneck
            ),
        ),
        request_classes=(RequestClass("r", Call("svc"), SlaSpec(99, 60)),),
    )
    monkeypatch.setattr(base, "NETWORK_DELAY_S", 0.0)  # a pure M/M/c queue
    app = Application(
        spec, 17, initial_replicas=1,
        cluster_options=ClusterOptions(nodes=1, node_cpus=32, node_memory_gb=64),
    )
    env = app.env
    env.run(until=10)
    LoadGenerator(app, ConstantLoad(rps), RequestMix({"r": 1.0}),
                  RandomStreams(18), stop_at_s=400).start()
    env.run(until=400)
    dist = app.hub.latency_distribution("request_latency", 60, 400, {"request": "r"})
    theory = mmc_mean_response(rps, 1.0 / service_time, cpus)
    assert dist.count > 5000
    assert dist.mean == pytest.approx(theory, rel=0.12)
