"""Tests of the end-to-end benchmark harness itself.

Run:  PYTHONPATH=src python -m pytest benchmarks/perf/e2e/test_harness.py
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from bench_e2e import InvocationError, WorkloadRun, quartiles, run_children, verdict
from e2e_trace import LAYERS, BoundaryTracer, SpeedProbe, StackSampler, attribute, layer_of
from e2e_workloads import BENCH_PINS, PINNED_SEEDS, SIZES, WORKLOADS, pinned_outputs

ROOT = Path(__file__).resolve().parents[3]


def _stack(*modules: str):
    """A synthetic frame chain, outermost module first."""
    frame = None
    for module in modules:
        frame = SimpleNamespace(f_globals={"__name__": module}, f_back=frame)
    return frame


@pytest.mark.parametrize(
    ("modules", "layer"),
    [
        (("__main__", "repro.experiments.runner", "repro.sim.engine"), "sim"),
        (("repro.sim.engine", "repro.sim.trace", "hashlib"), "sim.trace"),
        (("repro.workload.generator", "repro.sim.random", "numpy.random"), "sim.random"),
        (("repro.sim.engine", "repro.services.base", "heapq"), "services"),
        (("repro.core.manager", "repro.solver.branch_and_bound"), "solver"),
        (("repro.api", "repro.fleet.runner"), "fleet"),
        (("repro.experiments.runner", "repro.errors"), "other"),
        (("__main__", "pickle"), "other"),
    ],
)
def test_sampler_charges_innermost_repro_frame(modules, layer):
    assert attribute(_stack(*modules)) == layer


def test_layer_of_ignores_lookalike_packages():
    assert layer_of("reprox.sim") is None
    assert layer_of("repro") is None
    assert layer_of("repro.sim.resources") == "sim"


def test_sampler_metrics_cover_every_layer():
    sampler = StackSampler()
    sampler.samples["sim"] = 3
    sampler.samples["telemetry"] = 1
    metrics = sampler.metrics(wall_s=8.0)
    assert set(metrics) == {f"{layer}.{kind}" for layer in LAYERS for kind in ("self_share", "self_s")}
    assert metrics["sim.self_share"] == 0.75
    assert metrics["telemetry.self_s"] == 2.0
    assert sum(metrics[f"{layer}.self_share"] for layer in LAYERS) == 1.0


def test_speed_probe_rescales_to_reference_speed():
    reference = SpeedProbe.REFERENCE_S
    assert SpeedProbe.normalized(2.0, reference) == 2.0
    assert SpeedProbe.normalized(2.0, 2 * reference) < 1.0  # slow host: less work per second


def test_speed_probe_counts_samples_from_forked_workers():
    probe = SpeedProbe(period_s=60.0)  # the timer never fires during the test
    probe.start()
    try:
        pid = os.fork()
        if pid == 0:  # a pool worker: its samples land in the shared mapping
            probe._tick()
            probe._tick()
            os._exit(0)
        os.waitpid(pid, 0)
        probe._tick()
        assert sum(probe._totals[1::2]) == 3
        assert probe.take() > 0.0
        assert sum(probe._totals[1::2]) == 0  # take() starts a new interval
    finally:
        probe.stop()


def test_wrappers_restored_after_traced_run():
    from repro.core.optimizer import OptimizationEngine
    from repro.sim.engine import Environment
    from repro.telemetry.metrics import MetricsHub

    originals = {
        (owner, name): vars(owner)[name]
        for owner, name in (
            (Environment, "__init__"),
            (Environment, "process"),
            (Environment, "run"),
            (MetricsHub, "gauge_mean"),
            (OptimizationEngine, "optimize"),
        )
    }
    tracer = BoundaryTracer()
    with tracer:
        assert Environment.run is not originals[(Environment, "run")]
        env = Environment()

        def ticker():
            for _ in range(5):
                yield env.timeout(1.0)

        env.process(ticker())
        env.run(until=10)
    for (owner, name), original in originals.items():
        assert vars(owner)[name] is original, f"{owner.__name__}.{name} not restored"
    metrics = tracer.metrics()
    assert metrics["sim.envs"] == 1
    assert metrics["sim.processes"] == 1
    assert metrics["sim.run_calls"] == 1
    assert metrics["sim.timeouts"] == 5


def test_span_seconds_count_outermost_spans_once():
    tracer = BoundaryTracer()
    tracer.spans = [
        ["telemetry.query", 0.0, 4.0, -1],  # outer query
        ["telemetry.query", 1.0, 2.0, 0],  # nested inside it
        ["sim.run", 5.0, 9.0, -1],
        ["telemetry.query", 6.0, 7.0, 2],  # inside a run, outermost query
    ]
    assert tracer.span_stats("telemetry.query") == (3, 5.0, 4.0)
    assert tracer.span_stats("sim.run") == (1, 4.0, 4.0)


def test_quartiles_match_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    q1, median, q3 = quartiles(values)
    assert (q1, q3) == (statistics.quantiles(values, n=4)[0], statistics.quantiles(values, n=4)[2])
    assert median == 3.0
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        quartiles([])


BASE = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


@pytest.mark.parametrize(
    ("change", "better", "expected"),
    [
        ([v * 1.02 for v in BASE], "lower", "same"),  # inside the 10 % bound
        ([v * 1.15 for v in BASE], "lower", "worse"),
        ([v * 0.85 for v in BASE], "lower", "better"),
        ([v * 0.85 for v in BASE], "higher", "worse"),
        ([5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0, 5.0, 15.0], "lower", "unresolved"),
        ([1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0], "lower", "better"),  # wide, but always ahead
    ],
)
def test_compare_rule(change, better, expected):
    result, _wins = verdict(BASE, change, better, bound=0.10)
    assert result == expected


def test_win_fraction_counts_ties_for_neither():
    _result, wins = verdict([1.0, 1.0, 1.0, 1.0], [1.0, 0.9, 1.1, 0.9], "lower", bound=0.5)
    assert wins == 0.5


@pytest.mark.parametrize("size", ["bench", "full"])
def test_every_workload_is_pinned_at_every_size(size):
    for name in WORKLOADS:
        pinned = pinned_outputs(name, size, ROOT)
        assert pinned, name
        assert all(value is None or isinstance(value, (str, float)) for value in pinned.values())
    assert set(PINNED_SEEDS) == set(BENCH_PINS)


def _run(name: str, seed: int | None) -> WorkloadRun:
    return WorkloadRun(name, {"digest": "d", "completed_requests": 5.0}, seed)


def test_unseeded_invocations_are_checked_against_the_pins():
    run = _run("cell-social-ursa", None)
    run.check({"digest": "d", "completed_requests": 5.0, "extra": 1}, pin=False)
    with pytest.raises(InvocationError):
        run.check({"digest": "e", "completed_requests": 5.0, "extra": 1}, pin=False)


def test_seeded_invocations_agree_and_the_pin_invocation_matches_the_pins():
    run = _run("cell-social-ursa", 7)
    run.check({"digest": "x", "completed_requests": 9.0}, pin=False)  # another seed, other outputs
    with pytest.raises(InvocationError):
        run.check({"digest": "y", "completed_requests": 9.0}, pin=False)
    run.check({"digest": "d", "completed_requests": 5.0}, pin=True)
    with pytest.raises(InvocationError):
        run.check({"digest": "x", "completed_requests": 9.0}, pin=True)


def test_seed_does_not_unpin_table05():
    assert not _run("table05-cold", 7).seeded
    assert _run("fleet", 7).seeded


def _sleeper(seconds: float):
    return [sys.executable, "-c", f"import time; time.sleep({seconds})"], dict(os.environ)


def test_children_share_one_deadline():
    assert run_children([_sleeper(0.3), _sleeper(0.3)], timeout=5.0) == ["", ""]
    # A timeout per child would wait 1.0 + 1.8 s for the second one.
    with pytest.raises(InvocationError, match="timed out"):
        run_children([_sleeper(1.0), _sleeper(2.5)], timeout=1.8)


def test_benchmark_json_matches_the_harness():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert set(SIZES) == set(WORKLOADS)
    assert all(set(sizes) == {"bench", "full"} for sizes in SIZES.values())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    sampler_names = set(StackSampler().metrics(1.0))
    assert sampler_names <= set(names)
