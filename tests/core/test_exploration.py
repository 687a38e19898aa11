"""Tests for the Algorithm-1 exploration controller (miniature app)."""

import pytest

from repro.apps.topology import AppSpec, RequestClass, SlaSpec
from repro.core.exploration import ExplorationController, provisioning_for
from repro.errors import ExplorationError
from repro.net.messages import Call, CallMode
from repro.services.spec import ServiceSpec
from repro.sim.random import LogNormal, RandomStreams
from repro.workload.mixes import RequestMix


def tiny_spec(work_mean=0.01, sla_s=0.2):
    return AppSpec(
        name="tiny",
        services=(
            ServiceSpec("front", cpus_per_replica=1,
                        handlers={"req": LogNormal(0.002, 0.4)}),
            ServiceSpec("work", cpus_per_replica=1,
                        handlers={"req": LogNormal(work_mean, 0.5)}),
        ),
        request_classes=(
            RequestClass(
                "req",
                Call("front", CallMode.RPC, (Call("work"),)),
                SlaSpec(99.0, sla_s),
            ),
        ),
    )


@pytest.fixture(scope="module")
def controller():
    return ExplorationController(
        RandomStreams(7),
        window_s=10.0,
        samples_per_step=3,
        warmup_s=20.0,
        settle_s=5.0,
        min_window_samples=20,
    )


@pytest.fixture(scope="module")
def profile(controller):
    return controller.explore_service(tiny_spec(), "work", RequestMix({"req": 1.0}),
                                      rps=60.0, backpressure_threshold=0.65)


def test_exploration_records_options(profile):
    assert profile.options
    assert profile.samples_collected >= len(profile.options) * 3
    assert profile.profiling_time_s > 0


def test_lpr_ascends_as_replicas_drop(profile):
    lprs = [o.lpr["req"] for o in profile.options]
    assert all(b > a * 0.8 for a, b in zip(lprs, lprs[1:]))
    # Per-replica load roughly equals rate / replicas at the first step.
    first = profile.options[0]
    assert first.lpr["req"] == pytest.approx(60.0 / first.replicas, rel=0.25)


def test_latency_rows_grow_with_lpr(profile):
    """Higher load per replica -> higher tail latency (last grid column)."""
    tails = [o.latency_rows["req"][-1] for o in profile.options]
    assert tails[-1] >= tails[0]


def test_termination_reason_recorded(profile):
    assert profile.terminated_by in ("sla", "backpressure", "min_replicas")


def test_utilization_stays_below_threshold(profile):
    for option in profile.options:
        assert option.utilization < 0.65 + 0.1


def test_load_samples_match_lpr(profile):
    for option in profile.options:
        samples = option.load_samples["req"]
        assert len(samples) == 3
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(option.lpr["req"], rel=1e-6)


def test_unknown_mix_rejected(controller):
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        controller.explore_service(
            tiny_spec(), "work", RequestMix({"ghost": 1.0}), rps=10.0
        )


def test_provisioning_scales_with_load():
    spec = tiny_spec(work_mean=0.02)
    mix = RequestMix({"req": 1.0})
    low = provisioning_for(spec, mix, rps=20.0)
    high = provisioning_for(spec, mix, rps=200.0)
    assert high["work"] > low["work"]
    assert all(r >= 1 for r in low.values())
    with pytest.raises(ExplorationError):
        provisioning_for(spec, mix, rps=0)


def test_controller_validation():
    with pytest.raises(ExplorationError):
        ExplorationController(RandomStreams(0), samples_per_step=0)
    with pytest.raises(ExplorationError):
        ExplorationController(RandomStreams(0), sla_violation_threshold=0)


def test_explore_app_covers_services(controller):
    result = controller.explore_app(
        tiny_spec(), RequestMix({"req": 1.0}), rps=40.0,
        backpressure_thresholds={"front": 0.7, "work": 0.7},
    )
    assert set(result.profiles) == {"front", "work"}
    assert result.total_samples == sum(
        p.samples_collected for p in result.profiles.values()
    )
    assert result.exploration_time_s == max(
        p.profiling_time_s for p in result.profiles.values()
    )
