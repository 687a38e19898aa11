"""Pins of the managed-run protocol (``runner.start_deployment``).

Short digested video-pipeline runs through three of its callers, pinned
to recorded event-trace digests and output hashes.  The warm-up, the
point the manager is attached, and each caller's load seed and stop
time all feed the digest, so a change to any of them fails a pin here.
"""

import hashlib

from repro.api import (
    RunOptions,
    TracingOptions,
    run_deployment,
    run_diurnal_trace,
    run_model_accuracy,
)
from repro.experiments import artifacts
from repro.experiments.managers import attach_ursa
from repro.workload.defaults import default_mix_for
from repro.workload.patterns import ConstantLoad

APP = "video-pipeline"


def short_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_run_deployment_pin():
    # Load on seed + 7, stopped 30 s before the end.
    mix = default_mix_for(APP)
    rps = artifacts.app_rps(APP)
    result = run_deployment(
        artifacts.app_spec(APP),
        mix,
        ConstantLoad(rps),
        attach_ursa(artifacts.exploration_result(APP), mix.class_loads(rps)),
        manager_name="ursa",
        load_name="constant",
        options=RunOptions(
            seed=5,
            duration_s=90.0,
            measure_from_s=30.0,
            digest=True,
            tracing=TracingOptions(sample_every_n=4),
        ),
    )
    assert result.run_digest == "fdcc074b5b0c86ca09ec086f11332593"
    assert result.completed_requests == 117
    assert result.mean_cpu_allocation == 15.333333333333332
    assert result.traces.traced_requests == 30
    assert short_hash(result.traces.jsonl) == "b3e2cad23b3316ac"
    assert short_hash(result.traces.summary) == "f082e07d7f42560f"


def test_model_accuracy_pin():
    # Load on seed + 1 until the end; two 30 s windows after the quick
    # profile's 120 s measurement start.
    result = run_model_accuracy(
        APP,
        window_s=30.0,
        options=RunOptions(
            seed=17,
            duration_s=180.0,
            digest=True,
            scale="quick",
            tracing=TracingOptions(sample_every_n=4),
        ),
    )
    assert result.run_digest == "ab71b49f8bfb230cd0e850a66d54c0b0"
    assert {name: len(s.points) for name, s in result.series.items()} == {
        "high-priority": 2,
        "low-priority": 2,
    }
    assert short_hash(result.render()) == "2afc1b4aba09e105"
    assert result.traced_requests == result.traces.traced_requests == 111
    assert short_hash(result.traces.jsonl) == "921c5e1a4e4ec3a8"
    assert short_hash(result.traces.summary) == "308111d91d92f320"


def test_diurnal_trace_pin():
    # Ursa sized for the trough load; load on seed + 1 until the end.
    trace = run_diurnal_trace(
        APP,
        services=("vp-metadata", "vp-facerec"),
        window_s=30.0,
        options=RunOptions(seed=29, duration_s=90.0, digest=True),
        jobs=1,
    )
    assert trace.run_digest == "074bcea0f5be6cbef03cbf6fb5c95709"
    assert short_hash(trace.render()) == "a78d2cccb26078ee"
