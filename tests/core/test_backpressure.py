"""Tests for the backpressure profiler (miniature configurations)."""

import pytest

from repro.core.backpressure import BackpressureProfiler
from repro.errors import ExplorationError
from repro.services.spec import ServiceSpec
from repro.sim.random import Constant, LogNormal, RandomStreams
from repro.workload.mixes import RequestMix


@pytest.fixture(scope="module")
def profile():
    """One shared profiling run (they are expensive)."""
    profiler = BackpressureProfiler(
        RandomStreams(5), window_s=4.0, samples_per_limit=4
    )
    return profiler.profile("svc", LogNormal(0.008, 0.5), max_cpu_limit=8)


def test_profiler_finds_threshold_in_band(profile):
    assert 0.2 <= profile.threshold_utilization <= 0.95
    assert 2 <= profile.converged_cpu_limit <= 8
    # Pinned: the profiling ramp reproduces exactly.
    assert profile.threshold_utilization == 0.5408073251421763
    assert profile.converged_cpu_limit == 5


def test_profile_curve_shape(profile):
    """Utilisation decreases and proxy latency converges along the ramp."""
    utils = [p.utilization for p in profile.points]
    assert utils[0] == pytest.approx(1.0, abs=0.05)  # saturated at 1 CPU
    assert utils[-1] < utils[0]
    proxy = [p.proxy_p99_mean for p in profile.points]
    assert proxy[-1] < proxy[0] / 5  # >5x inflation before convergence


def test_threshold_is_pre_convergence_point(profile):
    assert profile.threshold_utilization == pytest.approx(
        profile.points[-2].utilization
    )


def test_profiler_validation():
    with pytest.raises(ExplorationError):
        BackpressureProfiler(RandomStreams(0), samples_per_limit=1)
    profiler = BackpressureProfiler(
        RandomStreams(0), window_s=4.0, samples_per_limit=4
    )
    with pytest.raises(ExplorationError):
        profiler.profile("svc", Constant(0.01), max_cpu_limit=1)


def test_profile_spec_uses_mix_weights():
    profiler = BackpressureProfiler(
        RandomStreams(9), window_s=4.0, samples_per_limit=4
    )
    spec = ServiceSpec(
        "mixed",
        cpus_per_replica=1,
        handlers={"fast": Constant(0.002), "slow": Constant(0.02)},
    )
    with pytest.raises(ExplorationError):
        # A mix giving the service zero load is rejected.
        profiler.profile_spec(spec, RequestMix({"other": 1.0}))


def test_profile_spec_without_handlers_rejected():
    profiler = BackpressureProfiler(RandomStreams(0))
    spec = ServiceSpec("empty", cpus_per_replica=1, handlers={})
    with pytest.raises(ExplorationError):
        profiler.profile_spec(spec)
