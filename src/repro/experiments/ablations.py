"""Ablation sweeps: design decisions knocked out one at a time.

Three ablations of Ursa's design, each comparing the shipped mechanism
against a degraded variant on otherwise-identical inputs:

* **t-test scaling** (§V item 4) -- Welch's t-test (alpha = 0.05) vs a
  naive mean comparison (alpha ~ 1) in the resource controller.
* **backpressure-free stop** (Algorithm 1) -- exploration with the
  utilisation stop enforced vs disabled (threshold = 1.0).
* **percentile-grid resolution** (Theorem 1) -- the MIP solved on
  coarser column subsets of the exploration grid.

The variant/cell functions live here (not in ``benchmarks/``) at module
top level so :func:`repro.experiments.parallel.run_many` can ship them
to worker processes; each sweep's variants are independent runs and fan
out across ``jobs``.  The ``benchmarks/test_ablation_*`` files call the
``run_*_ablation`` entry points and assert the expected shapes.
"""

from __future__ import annotations

# Solve-time probes below use wall-clock deliberately (they measure the
# optimiser, not simulated time); SIM001 is allowlisted for
# repro/experiments by repro.analysis.policy.
import time

from repro.apps.topology import Application
from repro.core.exploration import ExplorationController
from repro.core.manager import UrsaManager
from repro.errors import InfeasibleModelError
from repro.experiments import artifacts
from repro.experiments.parallel import RunPlan, run_many
from repro.experiments.report import render_table
from repro.experiments.runner import RunOptions, scale_profile, start_deployment
from repro.experiments.store import RunMeta
from repro.sim.random import RandomStreams
from repro.solver import AllocationModel, ClassSla, ServiceOptions, solve
from repro.stats.distributions import DEFAULT_PERCENTILE_GRID
from repro.workload.defaults import default_mix_for
from repro.workload.patterns import ConstantLoad

__all__ = [
    "ABLATION_APP",
    "BP_SERVICE",
    "GRID_SUBSETS",
    "ttest_variant",
    "run_ttest_ablation",
    "ttest_meta",
    "backpressure_variant",
    "run_backpressure_ablation",
    "backpressure_meta",
    "grid_subset_solve",
    "run_grid_ablation",
    "grid_meta",
]

#: Default seed of the t-test ablation deployments.
TTEST_SEED = 41

#: All three ablations use the vanilla social network: it is the
#: cheapest app whose topology still exercises every mechanism.
ABLATION_APP = "vanilla-social-network"

#: RPC-called service whose exploration the backpressure ablation probes.
BP_SERVICE = "timeline-service"


# -- t-test scaling (Welch vs naive) --------------------------------------


def ttest_variant(alpha: float, options: RunOptions | None = None) -> dict:
    """One Ursa deployment with the controller's t-test alpha overridden.

    Started by :func:`~repro.experiments.runner.start_deployment`, with
    load on ``seed + 1`` until the end of the run; ``alpha`` is set as
    the manager is attached, before its first decision.
    """
    options = (
        options if options is not None
        else RunOptions(seed=TTEST_SEED, digest=True)
    )
    duration = options.resolved_duration_s()
    measure_from = options.resolved_measure_from_s()
    mix = default_mix_for(ABLATION_APP)
    rps = artifacts.app_rps(ABLATION_APP)
    exploration = artifacts.exploration_result(ABLATION_APP)

    def attach(app: Application) -> UrsaManager:
        manager = UrsaManager(app, exploration)
        manager.controller.alpha = alpha
        manager.initialize(mix.class_loads(rps))
        manager.start()
        return manager

    run = start_deployment(
        artifacts.app_spec(ABLATION_APP),
        mix,
        ConstantLoad(rps),
        attach,
        options,
        load_seed=options.seed + 1,
        load_stop_s=duration,
    )
    run.app.env.run(until=duration)
    return {
        "decisions": len(run.manager.controller.decisions),
        "violations": run.app.windowed_violation_rate(measure_from, duration),
        "cpus": run.app.mean_cpu_allocation(measure_from, duration),
        "run_digest": run.run_digest(),
    }


def run_ttest_ablation(
    options: RunOptions | None = None, jobs: int | None = None
):
    """(table, with_ttest, naive) -- §V item 4 knocked out.

    Per-run knobs (seed, durations, digest) ride in ``options``; both
    variants share it so they face identical workloads.
    """
    artifacts.exploration_result(ABLATION_APP)  # prewarm before forking
    with_ttest, naive = run_many(
        [
            RunPlan(
                ttest_variant,
                {"alpha": 0.05, "options": options},
                label="ablation:ttest:welch",
            ),
            RunPlan(
                ttest_variant,
                {"alpha": 0.9999, "options": options},
                label="ablation:ttest:naive",
            ),
        ],
        jobs=jobs,
    )
    table = render_table(
        ["variant", "scaling_decisions", "violation_rate", "mean_cpus"],
        [
            (
                "welch t-test (a=0.05)",
                with_ttest["decisions"],
                f"{with_ttest['violations']:.3f}",
                f"{with_ttest['cpus']:.1f}",
            ),
            (
                "naive comparison (a~1)",
                naive["decisions"],
                f"{naive['violations']:.3f}",
                f"{naive['cpus']:.1f}",
            ),
        ],
        title="Ablation: t-test noise filtering in the resource controller",
    )
    return table, with_ttest, naive


def ttest_meta(with_ttest: dict, naive: dict, seed: int = TTEST_SEED) -> RunMeta:
    """Provenance sidecar for the t-test ablation (two digested runs)."""
    return RunMeta(
        experiment="ablation_ttest",
        scale=scale_profile().name,
        seeds={"welch": seed, "naive": seed},
        digests={
            label: variant["run_digest"]
            for label, variant in (("welch", with_ttest), ("naive", naive))
            if variant.get("run_digest")
        },
        summaries={
            label: {
                "scaling_decisions": float(variant["decisions"]),
                "violation_rate": round(variant["violations"], 9),
                "mean_cpus": round(variant["cpus"], 9),
            }
            for label, variant in (("welch", with_ttest), ("naive", naive))
        },
    )


# -- backpressure-free stop during exploration ----------------------------


def backpressure_variant(
    threshold: float, salt: int, options: RunOptions | None = None
):
    """Explore ``BP_SERVICE`` once with the given utilisation stop.

    ``options.scale`` picks the exploration profile (default: the
    ``REPRO_SCALE`` environment); the other run knobs do not apply to an
    exploration probe.
    """
    profile = options.profile() if options is not None else scale_profile()
    controller = ExplorationController(
        RandomStreams(777),
        window_s=profile.exploration_window_s,
        samples_per_step=profile.exploration_samples_per_step,
        warmup_s=profile.exploration_warmup_s,
        settle_s=profile.exploration_settle_s,
    )
    spec = artifacts.app_spec(ABLATION_APP)
    mix = default_mix_for(ABLATION_APP)
    return controller.explore_service(
        spec,
        BP_SERVICE,
        mix,
        artifacts.app_rps(ABLATION_APP),
        threshold,
        seed_salt=salt,
    )


def run_backpressure_ablation(
    options: RunOptions | None = None, jobs: int | None = None
):
    """(table, enforced, disabled) -- Algorithm 1's stop knocked out."""
    bp = artifacts.backpressure_thresholds(ABLATION_APP).get(BP_SERVICE, 0.6)
    artifacts.app_spec(ABLATION_APP)  # prewarm before forking
    enforced, disabled = run_many(
        [
            RunPlan(
                backpressure_variant,
                {"threshold": bp, "salt": 1, "options": options},
                label="ablation:bp:enforced",
            ),
            RunPlan(
                backpressure_variant,
                {"threshold": 1.0, "salt": 2, "options": options},
                label="ablation:bp:disabled",
            ),
        ],
        jobs=jobs,
    )
    rows = [
        (
            label,
            len(p.options),
            f"{max(o.utilization for o in p.options):.2f}",
            f"{max(o.max_lpr() for o in p.options):.1f}",
            p.terminated_by,
        )
        for label, p in (("enforced", enforced), ("disabled", disabled))
    ]
    table = render_table(
        ["variant", "options", "max_util_recorded", "max_lpr_rps", "stopped_by"],
        rows,
        title=(
            f"Ablation: backpressure-free stop for {BP_SERVICE} "
            f"(threshold={bp:.2f})"
        ),
    )
    return table, enforced, disabled


def backpressure_meta(enforced, disabled) -> RunMeta:
    """Provenance sidecar for the backpressure-stop ablation.

    The exploration controller owns its environments, so this is
    content-only provenance (no engine-level digests).
    """
    return RunMeta(
        experiment="ablation_bp",
        scale=scale_profile().name,
        seeds={"enforced": 1, "disabled": 2},
        summaries={
            label: {
                "options": float(len(p.options)),
                "max_util_recorded": round(
                    max(o.utilization for o in p.options), 9
                ),
            }
            for label, p in (("enforced", enforced), ("disabled", disabled))
        },
    )


# -- percentile-grid resolution of the Theorem 1 discretisation -----------

#: Column subsets of the default exploration grid
#: (50, 75, 85, 90, 95, 99, 99.5, 99.9).
GRID_SUBSETS = {
    "coarse-2": (0, 7),                   # {50, 99.9}
    "mid-4": (0, 4, 5, 7),                # {50, 95, 99, 99.9}
    "full-8": (0, 1, 2, 3, 4, 5, 6, 7),
}


def _build_grid_model(subset: tuple[int, ...]) -> AllocationModel:
    import numpy as np

    from repro.core.optimizer import OptimizationEngine

    exploration = artifacts.exploration_result(ABLATION_APP)
    spec = artifacts.app_spec(ABLATION_APP)
    mix = default_mix_for(ABLATION_APP)
    rps = artifacts.app_rps(ABLATION_APP)
    engine = OptimizationEngine(DEFAULT_PERCENTILE_GRID)
    full = engine.build_model(spec, exploration, mix.class_loads(rps))
    grid = [DEFAULT_PERCENTILE_GRID[i] for i in subset]
    services = [
        ServiceOptions(
            name=s.name,
            resources=s.resources,
            latency={j: np.asarray(m)[:, list(subset)] for j, m in s.latency.items()},
        )
        for s in full.services
    ]
    slas = [ClassSla(c.name, c.percentile, c.target_s) for c in full.slas]
    return AllocationModel(services, slas, grid)


def grid_subset_solve(name: str, subset: tuple[int, ...]) -> dict:
    """Solve the MIP on one grid subset; returns objective + solve cost."""
    model = _build_grid_model(subset)
    start = time.perf_counter()
    try:
        solution = solve(model)
        objective = solution.objective
        nodes = solution.nodes_explored
    except InfeasibleModelError:
        objective = float("inf")
        nodes = 0
    wall_ms = (time.perf_counter() - start) * 1000.0
    return {"name": name, "h": len(subset), "objective": objective,
            "nodes": nodes, "wall_ms": wall_ms}


def run_grid_ablation(jobs: int | None = None):
    """(table, objectives) -- Theorem 1's grid coarsened."""
    artifacts.exploration_result(ABLATION_APP)  # prewarm before forking
    cells = run_many(
        [
            RunPlan(
                grid_subset_solve,
                {"name": name, "subset": subset},
                label=f"ablation:grid:{name}",
            )
            for name, subset in GRID_SUBSETS.items()
        ],
        jobs=jobs,
    )
    objectives = {c["name"]: c["objective"] for c in cells}
    rows = [
        (c["name"], c["h"], f"{c['objective']:.1f}", c["nodes"],
         f"{c['wall_ms']:.1f}")
        for c in cells
    ]
    table = render_table(
        ["grid", "h", "objective_cpus", "bnb_nodes", "solve_ms"],
        rows,
        title="Ablation: percentile grid resolution",
    )
    return table, objectives


def grid_meta(objectives: dict[str, float]) -> RunMeta:
    """Provenance sidecar for the grid-resolution ablation.

    The rendered table embeds wall-clock solve times, so the text hash
    cannot be compared across runs (``deterministic=False``); the MIP
    objectives themselves are deterministic and recorded as summaries.
    """
    return RunMeta(
        experiment="ablation_grid",
        scale=scale_profile().name,
        seeds={},
        deterministic=False,
        summaries={
            name: {"objective_cpus": round(obj, 9)}
            for name, obj in sorted(objectives.items())
        },
    )
