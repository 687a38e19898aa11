#!/usr/bin/env python3
"""Adapting to a business-logic change (§VII-G).

The social network's object-detection service swaps DETR for the ~5x
lighter MobileNet.  Ursa re-explores only the changed microservice (a
partial exploration of ~a dozen samples here), recalculates thresholds,
and the updated deployment keeps the end-to-end object-detect SLA with a
fraction of the previous CPU allocation.

Run:  python examples/service_update.py
"""

from repro.apps import build_social_network_spec, swap_object_detect_model
from repro.core import ExplorationController, ExplorationResult
from repro.experiments.managers import attach_ursa
from repro.experiments.runner import RunOptions, start_deployment
from repro.sim import RandomStreams
from repro.workload import ConstantLoad
from repro.workload.defaults import social_network_mix

SERVICE = "object-detect-ml"
CLASS_NAME = "object-detect"


def deploy(spec, exploration, label, seed):
    mix = social_network_mix()
    rps = 120.0
    app = start_deployment(
        spec,
        mix,
        ConstantLoad(rps),
        attach_ursa(exploration, mix.class_loads(rps)),
        RunOptions(seed=seed),
        load_seed=seed + 1,
        load_stop_s=500,
    ).app
    app.env.run(until=540)
    dist = app.hub.latency_distribution(
        "request_latency", 120, 540, {"request": CLASS_NAME}
    )
    sla = spec.request_class(CLASS_NAME).sla
    print(f"-- {label}")
    print(
        f"   object-detect p99 = {dist.percentile(99):.2f} s "
        f"(SLA {sla.target_s:.0f} s), violation rate "
        f"{dist.fraction_above(sla.target_s):.2%}"
    )
    ml_cpus = app.hub.gauge_mean(
        "cpu_allocated", 120, 540, {"service": SERVICE}, default=0.0
    )
    print(f"   {SERVICE} mean CPUs: {ml_cpus:.1f}")


def main() -> None:
    original = build_social_network_spec()
    updated = swap_object_detect_model(original)
    mix = social_network_mix()
    rps = 120.0

    explorer = ExplorationController(
        RandomStreams(20), window_s=20.0, samples_per_step=4, warmup_s=40,
        settle_s=10,
    )
    print("== full exploration of the original application")
    exploration = explorer.explore_app(
        original, mix, rps, {s.name: 0.6 for s in original.services}
    )
    print(f"   {exploration.total_samples} samples total")
    deploy(original, exploration, "original deployment (DETR)", seed=21)

    print("== model swap: partial re-exploration of only the changed service")
    partial = explorer.explore_service(
        updated, SERVICE, mix, rps, 0.6, seed_salt=99
    )
    print(
        f"   {partial.samples_collected} samples in "
        f"{partial.profiling_time_s / 60:.0f} simulated minutes "
        f"(stopped by {partial.terminated_by})"
    )
    merged = ExplorationResult(
        app_name=updated.name,
        profiles={**exploration.profiles, SERVICE: partial},
    )
    deploy(updated, merged, "updated deployment (MobileNet)", seed=23)


if __name__ == "__main__":
    main()
