#!/usr/bin/env python3
"""Priority-aware resource management for the video-processing pipeline.

The pipeline (§VI) handles two request priorities with different SLAs:
high-priority jobs must finish within 20 s at the 99th percentile, while
low-priority jobs target a 4 s *median*.  The message queues serve
high-priority work whenever any is waiting; Ursa sizes the stages so both
SLAs hold simultaneously.

The example deploys the pipeline under Ursa, then shifts the priority mix
mid-run (more high-priority traffic) and reports both classes' SLAs and
the anomaly detector's threshold recalculations.  With two request
classes the request-ratio deviation ``max / mean - 1`` stays below 1,
the detector's recalculation threshold, however far the mix shifts: the
replica scaling alone absorbs the shift, and the count reads 0.

Run:  python examples/video_pipeline_priorities.py
"""

from repro.apps import build_video_pipeline_spec
from repro.core import ExplorationController
from repro.experiments.managers import attach_ursa
from repro.experiments.runner import RunOptions, start_deployment
from repro.sim import RandomStreams
from repro.workload import ConstantLoad, LoadGenerator
from repro.workload.defaults import video_pipeline_mix


#: High-priority share of the phase-2 mix (phase 1 and exploration: 25 %).
SKEWED_HIGH = 0.60


def report(app, t0, t1, label):
    print(f"-- {label}")
    for rc in app.spec.request_classes:
        dist = app.hub.latency_distribution(
            "request_latency", t0, t1, {"request": rc.name}
        )
        if dist:
            value = dist.percentile(rc.sla.percentile)
            status = "OK " if value <= rc.sla.target_s else "VIOL"
            print(
                f"   [{status}] {rc.name:14s} p{rc.sla.percentile:g} = "
                f"{value:6.2f} s (SLA {rc.sla.target_s:.0f} s, n={dist.count})"
            )
    print(f"   CPUs allocated: {app.allocated_cpus()}")


def main() -> None:
    spec = build_video_pipeline_spec()
    mix = video_pipeline_mix(high_fraction=0.25)
    rps = 2.5

    print("== exploring the three pipeline stages")
    explorer = ExplorationController(
        RandomStreams(10),
        window_s=30.0,
        samples_per_step=4,
        warmup_s=60,
        settle_s=15,
        min_window_samples=15,
    )
    exploration = explorer.explore_app(
        spec, mix, rps, {s.name: 0.7 for s in spec.services}
    )
    for name, profile in exploration.profiles.items():
        print(
            f"   {name:12s} {len(profile.options)} LPR options, "
            f"stopped by {profile.terminated_by}"
        )

    print("== phase 1: 25% high / 75% low priority")
    run = start_deployment(
        spec,
        mix,
        ConstantLoad(rps),
        attach_ursa(exploration, mix.class_loads(rps)),
        RunOptions(seed=11),
        load_seed=12,
        load_stop_s=700,
    )
    app, manager = run.app, run.manager
    app.env.run(until=700)
    report(app, 150, 700, "after 700 s at the exploration mix")

    print(f"== phase 2: shifting to {SKEWED_HIGH:.0%} high priority (skewed mix)")
    # Phase-1 arrivals stop at 700 s; a second generator carries the
    # skewed mix from there on.
    skewed = video_pipeline_mix(high_fraction=SKEWED_HIGH)
    LoadGenerator(
        app, ConstantLoad(rps), skewed, RandomStreams(13), stop_at_s=1500
    ).start()
    app.env.run(until=1600)
    report(app, 900, 1600, "after the skew")
    print(f"   threshold recalculations triggered: {manager.recalculations}")


if __name__ == "__main__":
    main()
