#!/usr/bin/env python3
"""Quickstart: deploy the social network under Ursa and watch it scale.

Walks the full Ursa lifecycle on a simulated cluster:

1. profile backpressure-free thresholds for two services (§III);
2. explore the per-service LPR allocation space (Algorithm 1);
3. solve the §IV MIP for the expected load and deploy;
4. drive a constant workload and report SLA compliance and CPU usage.

Run:  python examples/quickstart.py
"""

from repro.apps import build_vanilla_social_network_spec
from repro.core import BackpressureProfiler, ExplorationController
from repro.experiments.managers import attach_ursa
from repro.experiments.runner import RunOptions, start_deployment
from repro.sim import RandomStreams
from repro.workload import ConstantLoad
from repro.workload.defaults import vanilla_social_network_mix


def main() -> None:
    spec = build_vanilla_social_network_spec()
    mix = vanilla_social_network_mix()
    rps = 120.0

    # -- 1. backpressure-free thresholds (two services for brevity) -----
    print("== profiling backpressure-free thresholds (Fig. 3 engine)")
    profiler = BackpressureProfiler(
        RandomStreams(1), window_s=6.0, samples_per_limit=5
    )
    thresholds = {s.name: 0.6 for s in spec.services}  # default
    for name in ("timeline-service", "post-storage"):
        service = spec.service(name)
        result = profiler.profile_spec(service, mix, max_cpu_limit=6)
        thresholds[name] = result.threshold_utilization
        print(f"   {name}: threshold = {result.threshold_utilization:.1%}")

    # -- 2. allocation-space exploration (Algorithm 1) -------------------
    print("== exploring the allocation space (this simulates ~an hour of")
    print("   per-service profiling; takes a minute or two of wall time)")
    explorer = ExplorationController(
        RandomStreams(2), window_s=20.0, samples_per_step=4, warmup_s=40,
        settle_s=10,
    )
    exploration = explorer.explore_app(spec, mix, rps, thresholds)
    print(
        f"   collected {exploration.total_samples} samples; "
        f"longest service took "
        f"{exploration.exploration_time_s / 60:.0f} simulated minutes"
    )

    # -- 3. optimise and deploy; a 10-minute constant load starts --------
    run = start_deployment(
        spec,
        mix,
        ConstantLoad(rps),
        attach_ursa(exploration, mix.class_loads(rps)),
        RunOptions(seed=3),
        load_seed=4,
        load_stop_s=600,
    )
    app, outcome = run.app, run.manager.outcome
    print("== optimiser chose per-service scaling thresholds:")
    for name, threshold in sorted(outcome.thresholds.items()):
        lpr = max(threshold.lpr.values())
        print(
            f"   {name:18s} lpr<= {lpr:7.1f} rps/replica  "
            f"replicas now: {app.services[name].deployment.desired_replicas}"
        )

    # -- 4. drive load and report ----------------------------------------
    print("== running a 10-minute constant-load deployment...")
    app.env.run(until=640)
    print(f"   SLA violation rate: {app.windowed_violation_rate(120, 640):.2%}")
    print(f"   mean CPU allocation: {app.mean_cpu_allocation(120, 640):.1f} cores")
    for rc in spec.request_classes:
        dist = app.hub.latency_distribution(
            "request_latency", 120, 640, {"request": rc.name}
        )
        if dist:
            print(
                f"   {rc.name:18s} p{rc.sla.percentile:g} = "
                f"{dist.percentile(rc.sla.percentile) * 1000:7.1f} ms "
                f"(SLA {rc.sla.target_s * 1000:.0f} ms, n={dist.count})"
            )


if __name__ == "__main__":
    main()
