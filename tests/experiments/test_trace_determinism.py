"""End-to-end tracing determinism through the process-pool fan-out.

The span dumps and run digests are part of the repro contract: the same
seed must yield byte-identical trace artefacts at any job count, and
enabling tracing/digesting must not perturb the simulated timeline
(pure-observer invariant, checked here at the deployment level).
"""

from repro.experiments.artifacts import app_spec
from repro.experiments.parallel import RunPlan, run_many
from repro.api import RunOptions, TracingOptions, run_deployment
from repro.workload.defaults import default_mix_for
from repro.workload.patterns import ConstantLoad

SEEDS = (11, 12)


def attach_noop(app) -> None:
    """Stand-in resource manager: fixed replicas, nothing to attach."""


def traced_run(seed: int, tracing: bool = True):
    """A short social-network deployment with digest (and tracing) on."""
    return run_deployment(
        app_spec("social-network"),
        default_mix_for("social-network"),
        ConstantLoad(25.0),
        attach_noop,
        manager_name="noop",
        load_name="constant",
        options=RunOptions(
            seed=seed,
            duration_s=50.0,
            measure_from_s=15.0,
            tracing=TracingOptions(sample_every_n=3) if tracing else None,
            digest=True,
        ),
    )


def _artifacts(result):
    return (
        result.run_digest,
        result.traces.traced_requests,
        result.traces.jsonl,
        result.traces.summary,
    )


def test_trace_artifacts_identical_across_job_counts():
    plans = [
        RunPlan(traced_run, {"seed": seed}, label=f"seed={seed}") for seed in SEEDS
    ]
    sequential = run_many(plans, jobs=1)
    pooled = run_many(plans, jobs=2)
    assert [_artifacts(r) for r in sequential] == [_artifacts(r) for r in pooled]
    for result in sequential:
        # validate=True already raised inside the run if any sampled
        # request's attribution missed its e2e latency by >1e-6.
        assert result.traces.traced_requests > 0
        assert result.traces.jsonl.endswith("\n")
        assert "traced" in result.traces.summary
    # Different seeds produce different timelines and different dumps.
    assert sequential[0].run_digest != sequential[1].run_digest
    assert sequential[0].traces.jsonl != sequential[1].traces.jsonl


def test_tracing_does_not_perturb_the_timeline():
    traced = traced_run(SEEDS[0])
    untraced = traced_run(SEEDS[0], tracing=False)
    assert untraced.traces is None
    assert traced.run_digest == untraced.run_digest
    assert traced.completed_requests == untraced.completed_requests
    assert traced.windowed_violation_rate == untraced.windowed_violation_rate
