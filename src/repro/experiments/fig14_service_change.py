"""Fig. 14 / §VII-G -- adapting to a business-logic change.

The object-detection service swaps its model (DETR -> MobileNet: ~5x
lighter).  Ursa handles the change with a *partial* re-exploration -- only
the modified service is profiled -- followed by a threshold recalculation.
Reported:

* the partial exploration's sample count, duration and the SLA-violation
  rate incurred while it ran (the paper: 75 samples, 1.25 h, 5.3 %);
* the end-to-end object-detect latency CDF and its violation rate before
  and after the update (the paper: 0.62 % -> 0.50 %).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.social_network import swap_object_detect_model
from repro.core.exploration import F_SLA, ExplorationController, ExplorationResult
from repro.experiments import artifacts
from repro.experiments.managers import attach_ursa
from repro.experiments.parallel import RunPlan, run_many
from repro.experiments.report import render_series
from repro.experiments.runner import RunOptions, scale_profile, start_deployment
from repro.experiments.store import RunMeta
from repro.sim.random import RandomStreams
from repro.workload.defaults import default_mix_for
from repro.workload.patterns import ConstantLoad

__all__ = ["ServiceChangeResult", "run_service_change", "experiment_meta"]

CHANGED_SERVICE = "object-detect-ml"
TARGET_CLASS = "object-detect"

#: Default seed for the Fig. 14 deployments.
FIG14_SEED = 37


@dataclass
class DeploymentSummary:
    label: str
    violation_rate: float
    cdf: list[tuple[float, float]]  # (latency_s, cumulative fraction)
    #: Event-trace checksum of the deployment run.
    run_digest: str | None = None

    def render(self) -> str:
        series = render_series(
            f"{self.label} object-detect latency CDF", self.cdf, "latency_s", "F"
        )
        return f"{series}\nper-request violation rate: {self.violation_rate:.4f}"


@dataclass
class ServiceChangeResult:
    partial_samples: int
    partial_time_s: float
    partial_violation_rate: float
    original: DeploymentSummary
    updated: DeploymentSummary

    def render(self) -> str:
        header = (
            f"partial re-exploration of {CHANGED_SERVICE}: "
            f"{self.partial_samples} samples in "
            f"{self.partial_time_s / 3600:.2f} h, "
            f"violation rate during exploration "
            f"{self.partial_violation_rate:.3f}"
        )
        return "\n\n".join([header, self.original.render(), self.updated.render()])


def _deploy_and_measure(
    spec, exploration: ExplorationResult, label: str, options: RunOptions
) -> DeploymentSummary:
    """One Ursa deployment and its object-detect latency CDF.

    Started by :func:`~repro.experiments.runner.start_deployment`, with
    constant load on ``seed + 1`` until the end of the run.
    """
    duration = options.resolved_duration_s()
    mix = default_mix_for("social-network")
    rps = artifacts.app_rps("social-network")
    run = start_deployment(
        spec,
        mix,
        ConstantLoad(rps),
        attach_ursa(exploration, mix.class_loads(rps)),
        options,
        load_seed=options.seed + 1,
        load_stop_s=duration,
    )
    app = run.app
    app.env.run(until=duration)
    dist = app.hub.latency_distribution(
        "request_latency",
        options.resolved_measure_from_s(),
        duration,
        {"request": TARGET_CLASS},
    )
    sla = spec.request_class(TARGET_CLASS).sla
    samples = dist.samples()
    cdf = [
        (samples[int(len(samples) * q) - 1], q)
        for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0)
        if len(samples) >= 1
    ]
    return DeploymentSummary(
        label=label,
        violation_rate=dist.fraction_above(sla.target_s) if dist else 0.0,
        cdf=cdf,
        run_digest=run.run_digest(),
    )


def _explore_changed_service(spec, seed: int):
    """Partial re-exploration of the changed service (§VII-G)."""
    profile = scale_profile()
    controller = ExplorationController(
        RandomStreams(seed + 11),
        window_s=profile.exploration_window_s,
        samples_per_step=profile.exploration_samples_per_step,
        warmup_s=profile.exploration_warmup_s,
        settle_s=profile.exploration_settle_s,
    )
    mix = default_mix_for("social-network")
    rps = artifacts.app_rps("social-network")
    thresholds = artifacts.backpressure_thresholds("social-network")
    partial = controller.explore_service(
        spec,
        CHANGED_SERVICE,
        mix,
        rps,
        thresholds.get(CHANGED_SERVICE, 1.0),
        seed_salt=seed,
    )
    return partial


def run_service_change(
    options: RunOptions | None = None,
    jobs: int | None = None,
    on_complete=None,
) -> ServiceChangeResult:
    options = (
        options if options is not None
        else RunOptions(seed=FIG14_SEED, digest=True)
    )
    seed = options.seed
    original_spec = artifacts.app_spec("social-network")
    updated_spec = swap_object_detect_model(original_spec)

    # Full exploration (cached) drives the original deployment; build
    # shared artefacts in the parent before forking workers.
    full_exploration = artifacts.exploration_result("social-network")
    artifacts.backpressure_thresholds("social-network")

    # The original-deployment measurement and the partial re-exploration
    # are independent (the paper runs the exploration *on* the live
    # deployment; here both are simulated from the same initial state),
    # so they fan out as two plans.  Seeds are explicit per plan, so the
    # result is identical for any ``jobs``.
    original, partial = run_many(
        [
            RunPlan(
                _deploy_and_measure,
                {
                    "spec": original_spec,
                    "exploration": full_exploration,
                    "label": "original (DETR)",
                    "options": options,
                },
                label="fig14:original",
            ),
            RunPlan(
                _explore_changed_service,
                {"spec": updated_spec, "seed": seed},
                label="fig14:partial-exploration",
            ),
        ],
        jobs=jobs,
        on_complete=on_complete,
    )
    merged = ExplorationResult(
        app_name=updated_spec.name,
        profiles={
            **full_exploration.profiles,
            CHANGED_SERVICE: partial,
        },
    )
    updated = _deploy_and_measure(
        updated_spec, merged, "updated (MobileNet)",
        options.replace(seed=seed + 1),
    )
    # Violation frequency observed during the partial exploration: the
    # terminating step's violations are part of the run; approximate with
    # the termination cause (a terminating "sla" step means the last
    # samples violated at >= F_sla).
    partial_violation = F_SLA if partial.terminated_by == "sla" else 0.0
    return ServiceChangeResult(
        partial_samples=partial.samples_collected,
        partial_time_s=partial.profiling_time_s,
        partial_violation_rate=partial_violation,
        original=original,
        updated=updated,
    )


def experiment_meta(
    result: ServiceChangeResult, seed: int = FIG14_SEED
) -> RunMeta:
    """Provenance sidecar for the Fig. 14 output.

    The two deployments (before/after the model swap) carry event-trace
    digests; the partial re-exploration runs its environments inside the
    controller and is covered by the sidecar's text hash only.
    """
    digests = {}
    for key, summary in (("original", result.original), ("updated", result.updated)):
        if summary.run_digest is not None:
            digests[key] = summary.run_digest
    return RunMeta(
        experiment="fig14",
        scale=scale_profile().name,
        seeds={"original": seed, "updated": seed + 1},
        digests=digests,
        summaries={
            "original": {"violation_rate": round(result.original.violation_rate, 9)},
            "updated": {"violation_rate": round(result.updated.violation_rate, 9)},
            "partial_exploration": {
                "samples": float(result.partial_samples),
                "time_s": round(result.partial_time_s, 6),
                "violation_rate": round(result.partial_violation_rate, 9),
            },
        },
    )
