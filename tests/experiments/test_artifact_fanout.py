"""Per-service fan-out of the artifact builders (backpressure + Alg. 1).

Cold artifact builds run one :class:`RunPlan` per service.  These tests
pin that the fan-out is invisible in the results: any job count gives
the profiles, Table V accounting and combined digest of the sequential
library path, :meth:`ExplorationController.explore_app`.  CI also runs
this module under ``REPRO_SANITIZE=1``, so the per-service worker entry
points are checked for module-global drift.
"""

import pytest

from repro.api import run_table05
from repro.core.exploration import ExplorationController, ExplorationResult
from repro.experiments import artifacts
from repro.experiments.parallel import RunPlan, shutdown_pool
from repro.sim.random import RandomStreams
from repro.sim.trace import combine_digests
from repro.workload.mixes import RequestMix

from tests.core.test_exploration import tiny_spec

SEED = 7
SETTINGS = {
    "window_s": 10.0,
    "samples_per_step": 3,
    "warmup_s": 20.0,
    "settle_s": 5.0,
    "min_window_samples": 20,
}
MIX = RequestMix({"req": 1.0})
RPS = 60.0
THRESHOLDS = {"work": 0.65}


def _fan_out(jobs, on_complete=None) -> ExplorationResult:
    return artifacts.explore_services(
        tiny_spec(),
        MIX,
        RPS,
        THRESHOLDS,
        seed=SEED,
        settings=SETTINGS,
        jobs=jobs,
        on_complete=on_complete,
    )


def _summary(result: ExplorationResult):
    return (
        result.profiles,
        result.total_samples,
        result.exploration_time_s,
        result.trace_digest,
    )


@pytest.fixture(scope="module")
def sequential() -> ExplorationResult:
    controller = ExplorationController(RandomStreams(SEED), **SETTINGS)
    return controller.explore_app(tiny_spec(), MIX, RPS, THRESHOLDS, digest=True)


@pytest.fixture(scope="module", autouse=True)
def _no_pool_left_behind():
    yield
    shutdown_pool()


def test_fan_out_matches_explore_app_at_every_job_count(sequential):
    seen = []
    one = _fan_out(jobs=1)
    two = _fan_out(
        jobs=2,
        on_complete=lambda plan, profile: seen.append((plan.label, profile.service)),
    )
    assert _summary(one) == _summary(two)
    assert _summary(two) == _summary(sequential)
    assert sequential.trace_digest is not None
    assert sequential.trace_digest == combine_digests(
        {name: p.trace_digest for name, p in sequential.profiles.items()}
    )
    # One plan per service, merged back in spec order.
    assert sorted(seen) == [("tiny/front", "front"), ("tiny/work", "work")]
    assert list(two.profiles) == ["front", "work"]


def test_table05_labels_progress_per_service(monkeypatch, sequential):
    """run_table05 builds app by app in the parent; each service plan's
    progress line reads ``table05:<app>/<service>``."""

    def fake_exploration(app_name, jobs=None, on_complete=None):
        for service in sequential.profiles:
            on_complete(RunPlan(len, label=f"{app_name}/{service}"), None)
        return sequential

    monkeypatch.setattr(artifacts, "exploration_result", fake_exploration)
    labels = []
    table = run_table05(
        ("video-pipeline",), jobs=2, on_complete=lambda plan, _r: labels.append(plan.label)
    )
    assert labels == ["table05:video-pipeline/front", "table05:video-pipeline/work"]
    (row,) = table.rows
    assert row.trace_digest == sequential.trace_digest
    assert row.ursa_samples == sequential.total_samples
