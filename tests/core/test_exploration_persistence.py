"""Tests for exploration save/load round-tripping."""

from repro.core.exploration import (
    ExplorationResult,
    LprOption,
    ServiceProfile,
    load_exploration,
    save_exploration,
)
from repro.sim.trace import combine_digests

GRID_LEN = 8


def synthetic():
    options = [
        LprOption(
            replicas=3 - k,
            lpr={"a": 10.0 * (k + 1), "b": 5.0 * (k + 1)},
            load_samples={"a": [9.0, 10.0, 11.0], "b": [5.0, 5.5]},
            latency_rows={
                "a": [0.01 * (k + 1) * (1 + 0.1 * i) for i in range(GRID_LEN)],
                "b": [0.02 * (k + 1)] * GRID_LEN,
            },
            utilization=0.3 + 0.1 * k,
        )
        for k in range(3)
    ]
    return ExplorationResult(
        "app",
        {
            "svc": ServiceProfile("svc", 2, options, 30, 1800.0, "sla"),
        },
    )


def test_round_trip(tmp_path):
    original = synthetic()
    path = tmp_path / "exploration.json"
    save_exploration(original, path)
    loaded = load_exploration(path)
    assert loaded.app_name == original.app_name
    assert loaded.total_samples == original.total_samples
    assert loaded.exploration_time_s == original.exploration_time_s
    svc_orig = original.profiles["svc"]
    svc_new = loaded.profiles["svc"]
    assert svc_new.terminated_by == svc_orig.terminated_by
    assert svc_new.cpus_per_replica == svc_orig.cpus_per_replica
    for a, b in zip(svc_orig.options, svc_new.options):
        assert a.replicas == b.replicas
        assert a.lpr == b.lpr
        assert a.load_samples == b.load_samples
        assert a.latency_rows == b.latency_rows
        assert a.utilization == b.utilization


def traced():
    result = synthetic()
    profile = result.profiles["svc"]
    profile.trace_digest = "ab" * 16
    # The app digest is derived from the per-service ones at construction.
    return ExplorationResult(result.app_name, {"svc": profile})


def test_trace_digest_round_trips(tmp_path):
    path = tmp_path / "exploration.json"
    original = traced()
    assert original.trace_digest == combine_digests({"svc": "ab" * 16})
    save_exploration(original, path)
    loaded = load_exploration(path)
    assert loaded.profiles["svc"].trace_digest == "ab" * 16
    assert loaded.trace_digest == original.trace_digest
    # Untraced results stay untraced through the round trip.
    save_exploration(synthetic(), path)
    assert load_exploration(path).trace_digest is None


def test_legacy_payload_without_digest_loads(tmp_path):
    import json

    path = tmp_path / "exploration.json"
    save_exploration(traced(), path)
    payload = json.loads(path.read_text())
    # Files written before per-service digests carry at most one
    # app-level digest, which the per-service scheme cannot reproduce.
    del payload["profiles"]["svc"]["trace_digest"]
    payload["trace_digest"] = "cd" * 16
    path.write_text(json.dumps(payload))
    assert load_exploration(path).trace_digest is None


def test_loaded_result_drives_optimizer(tmp_path):
    """A loaded exploration is directly usable by the optimisation engine."""
    from repro.apps.topology import AppSpec, RequestClass, SlaSpec
    from repro.core.optimizer import OptimizationEngine
    from repro.net.messages import Call
    from repro.services.spec import ServiceSpec
    from repro.sim.random import Constant

    path = tmp_path / "exploration.json"
    save_exploration(synthetic(), path)
    loaded = load_exploration(path)
    spec = AppSpec(
        "app",
        services=(
            ServiceSpec(
                "svc",
                cpus_per_replica=2,
                handlers={"a": Constant(0.01), "b": Constant(0.02)},
            ),
        ),
        request_classes=(
            RequestClass("a", Call("svc"), SlaSpec(99.0, 1.0)),
            RequestClass("b", Call("svc"), SlaSpec(99.0, 1.0)),
        ),
    )
    outcome = OptimizationEngine().optimize(spec, loaded, {"a": 20.0, "b": 10.0})
    assert outcome.thresholds["svc"].lpr["a"] > 0
