"""Cached experiment artefacts: exploration data and trained baselines.

Backpressure profiling, Algorithm-1 exploration, Sinan data collection /
training and Firm agent training are expensive; every table and figure
that needs them shares one cached copy per (application, scale profile).
Artefacts are pickled under ``.repro_cache/`` in the repository root so
separate benchmark processes reuse them; delete the directory to force
regeneration.

Backpressure profiling and exploration build one service per
:class:`~repro.experiments.parallel.RunPlan`: services are profiled
independently (§IV), so a cold build fans out over the worker pool and
takes as long as its slowest service, as Table V accounts.  Each service
runs on its own environment with streams forked from a fixed salt, so
the artefact is the same at every job count.
"""

from __future__ import annotations

import contextlib
import fcntl
import os
import pickle
from pathlib import Path
from typing import Callable

from repro.apps import (
    build_media_service_spec,
    build_social_network_spec,
    build_vanilla_social_network_spec,
    build_video_pipeline_spec,
)
from repro.apps.topology import AppSpec
from repro.baselines.firm import FirmAgent, train_firm_agents
from repro.baselines.sinan import SinanDataCollector, SinanDataset, SinanPredictor
from repro.core.backpressure import BackpressureProfiler
from repro.core.exploration import (
    ExplorationController,
    ExplorationResult,
    ServiceProfile,
)
from repro.experiments.parallel import RunPlan, run_many
from repro.experiments.runner import DEFAULT_RPS, scale_profile
from repro.sim.random import RandomStreams
from repro.workload.defaults import default_mix_for
from repro.workload.mixes import RequestMix

__all__ = [
    "app_spec",
    "app_rps",
    "backpressure_thresholds",
    "exploration_result",
    "explore_services",
    "sinan_predictor",
    "sinan_dataset",
    "firm_agents",
    "cache_dir",
]

_BUILDERS: dict[str, Callable[[], AppSpec]] = {
    "social-network": build_social_network_spec,
    "vanilla-social-network": build_vanilla_social_network_spec,
    "media-service": build_media_service_spec,
    "video-pipeline": build_video_pipeline_spec,
}


def app_spec(app_name: str) -> AppSpec:
    try:
        return _BUILDERS[app_name]()
    except KeyError:
        raise ValueError(f"unknown application {app_name!r}") from None


def app_rps(app_name: str) -> float:
    return DEFAULT_RPS[app_name]


def cache_dir() -> Path:
    path = Path(__file__).resolve().parents[3] / ".repro_cache"
    path.mkdir(exist_ok=True)
    return path


def _load(path: Path):
    """One read attempt; a corrupt entry is a miss, not an error."""
    if not path.exists():
        return None
    try:
        with path.open("rb") as fh:
            return pickle.load(fh)
    except Exception:
        # A truncated/corrupt cache entry (e.g. an interrupted write
        # by an older, non-atomic writer) is a miss, not an error.
        path.unlink(missing_ok=True)
        return None


@contextlib.contextmanager
def _key_lock(path: Path):
    """Exclusive advisory lock serialising builds of one cache key.

    The lock file sits next to the pickle (``<key>.pkl.lock``) and is
    left in place -- unlinking it would race a third process that just
    opened the old inode and now holds a lock nobody else sees.
    """
    lock_path = path.with_name(path.name + ".lock")
    with lock_path.open("a") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def _cached(key: str, build: Callable[[], object]):
    path = cache_dir() / f"{key}-{scale_profile().name}.pkl"
    artefact = _load(path)
    if artefact is not None:
        return artefact
    # Serialise concurrent builders of the same key: without the lock, N
    # processes missing simultaneously (e.g. grid workers, or separate
    # benchmark runs) would each pay the full build.  Distinct keys stay
    # concurrent.
    with _key_lock(path):
        # Double-checked read: whoever held the lock first has published
        # the artefact by the time we acquire it.
        artefact = _load(path)
        if artefact is not None:
            return artefact
        artefact = build()
        # Write-to-temp + atomic rename: a reader never sees a
        # half-written pickle, even one not going through the lock.
        tmp = path.with_name(f"{path.name}.tmp{os.getpid()}")
        with tmp.open("wb") as fh:
            pickle.dump(artefact, fh)
        os.replace(tmp, path)
    return artefact


# ----------------------------------------------------------------------
def _profile_backpressure(app_name: str, service: str) -> float:
    """One service's backpressure-free threshold (a :class:`RunPlan`)."""
    profile = scale_profile()
    profiler = BackpressureProfiler(
        RandomStreams(101),
        window_s=profile.bp_window_s,
        samples_per_limit=profile.bp_samples_per_limit,
    )
    result = profiler.profile_spec(
        app_spec(app_name).service(service), default_mix_for(app_name)
    )
    return result.threshold_utilization


def backpressure_thresholds(
    app_name: str,
    jobs: int | None = None,
    on_complete: Callable[[RunPlan, object], None] | None = None,
) -> dict[str, float]:
    """Per-service backpressure-free CPU-utilisation thresholds (§III).

    A cold build profiles one service per plan on ``jobs`` workers
    (:func:`~repro.experiments.parallel.run_many` conventions); a cache
    hit returns before any pool exists.
    """

    def build() -> dict[str, float]:
        spec = app_spec(app_name)
        # Only RPC-connected services can propagate backpressure (§III);
        # MQ-only consumers are unconstrained (threshold 1.0).
        rpc_called = spec.rpc_called_services()
        profiled = [s.name for s in spec.services if s.name in rpc_called]
        plans = [
            RunPlan(
                _profile_backpressure,
                {"app_name": app_name, "service": name},
                label=f"{app_name}/{name} (backpressure)",
            )
            for name in profiled
        ]
        measured = dict(
            zip(profiled, run_many(plans, jobs=jobs, on_complete=on_complete))
        )
        return {s.name: measured.get(s.name, 1.0) for s in spec.services}

    return _cached(f"bp-{app_name}", build)


def _explore_service(
    spec: AppSpec,
    service: str,
    mix: RequestMix,
    rps: float,
    backpressure_threshold: float,
    seed_salt: int,
    seed: int,
    settings: dict[str, float],
) -> ServiceProfile:
    """Algorithm 1 for one service, digested (a :class:`RunPlan`)."""
    controller = ExplorationController(RandomStreams(seed), **settings)
    return controller.explore_service(
        spec,
        service,
        mix,
        rps,
        backpressure_threshold,
        seed_salt=seed_salt,
        digest=True,
    )


def explore_services(
    spec: AppSpec,
    mix: RequestMix,
    rps: float,
    backpressure_thresholds: dict[str, float],
    seed: int,
    settings: dict[str, float],
    jobs: int | None = None,
    on_complete: Callable[[RunPlan, object], None] | None = None,
) -> ExplorationResult:
    """``ExplorationController(RandomStreams(seed), **settings)
    .explore_app(spec, mix, rps, backpressure_thresholds, digest=True)``,
    one plan per service on ``jobs`` workers.

    Each plan uses the salt ``explore_app`` gives that service, so the
    result -- per-service digests and the combined
    :attr:`~repro.core.exploration.ExplorationResult.trace_digest`
    included -- equals the sequential library path's at every job count.
    """
    names = [s.name for s in spec.services]
    plans = [
        RunPlan(
            _explore_service,
            {
                "spec": spec,
                "service": name,
                "mix": mix,
                "rps": rps,
                "backpressure_threshold": backpressure_thresholds.get(name, 1.0),
                "seed_salt": k,
                "seed": seed,
                "settings": settings,
            },
            label=f"{spec.name}/{name}",
        )
        for k, name in enumerate(names)
    ]
    profiles = run_many(plans, jobs=jobs, on_complete=on_complete)
    return ExplorationResult(app_name=spec.name, profiles=dict(zip(names, profiles)))


def exploration_result(
    app_name: str,
    jobs: int | None = None,
    on_complete: Callable[[RunPlan, object], None] | None = None,
) -> ExplorationResult:
    """Algorithm-1 exploration for one app under its default mix.

    A cold build profiles and explores one service per plan on ``jobs``
    workers (:func:`explore_services`); a cache hit returns before any
    pool exists.  The digest rides inside the cached artefact, so
    warm-cache consumers (Table V's sidecar) report the fingerprint of
    the run that built the profiles.
    """

    def build() -> ExplorationResult:
        profile = scale_profile()
        return explore_services(
            app_spec(app_name),
            default_mix_for(app_name),
            app_rps(app_name),
            backpressure_thresholds(app_name, jobs=jobs, on_complete=on_complete),
            seed=202,
            settings={
                "window_s": profile.exploration_window_s,
                "samples_per_step": profile.exploration_samples_per_step,
                "warmup_s": profile.exploration_warmup_s,
                "settle_s": profile.exploration_settle_s,
            },
            jobs=jobs,
            on_complete=on_complete,
        )

    # v2: per-service digests.  Older pickles carry the chained digest of
    # the sequential build, which must not be re-published as this one's.
    # "-default" names the mix; warm caches are keyed on it, so it stays.
    return _cached(f"exploration-v2-{app_name}-default", build)


def sinan_dataset(app_name: str) -> SinanDataset:
    def build() -> SinanDataset:
        spec = app_spec(app_name)
        profile = scale_profile()
        collector = SinanDataCollector(
            RandomStreams(303), window_s=30.0, settle_s=10.0
        )
        return collector.collect(
            spec,
            default_mix_for(app_name),
            app_rps(app_name),
            n_samples=profile.sinan_samples,
        )

    return _cached(f"sinan-data-{app_name}", build)


def sinan_predictor(app_name: str) -> SinanPredictor:
    def build() -> SinanPredictor:
        return SinanPredictor.train(sinan_dataset(app_name), epochs=40)

    return _cached(f"sinan-model-{app_name}", build)


def firm_agents(app_name: str) -> dict[str, FirmAgent]:
    def build() -> dict[str, FirmAgent]:
        spec = app_spec(app_name)
        profile = scale_profile()
        agents, _time = train_firm_agents(
            spec,
            default_mix_for(app_name),
            app_rps(app_name),
            RandomStreams(404),
            n_samples=profile.firm_samples,
        )
        return agents

    return _cached(f"firm-agents-{app_name}", build)
