"""The end-to-end workloads, and the child process that times one of them.

Each workload is one batch job that a user of this repo runs, entered
through the public ``repro.api`` surface exactly as the CLI enters it.
It comes in two sizes:

* ``full`` -- the invocation the CLI makes (``python -m repro fig11-12``
  cell, ``table05`` on media-service, ``make fleet``).  At the pinned
  seeds its outputs must equal the committed ``results/`` sidecars.
* ``bench`` -- the same path made short enough that the benchmark's
  repeated runs fit their time budget: shorter simulated durations, the
  video-pipeline Table V row, a 4-cell fleet.  At the pinned seeds its
  outputs must equal :data:`BENCH_PINS`.

Run as a script, this module is the child process the harness spawns once
per timed or traced invocation (``python e2e_workloads.py '<json>'``) or
once per artifact build (``python e2e_workloads.py prepare APP ...``).  It
prints one JSON record as its last line of standard output.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path

__all__ = ["BENCH_PINS", "PINNED_SEEDS", "PREPARE_APPS", "SIZES", "WORKLOADS", "pinned_outputs"]

#: Applications whose artifacts (backpressure thresholds + Algorithm-1
#: exploration) the warm workloads read; built once per source tree.
#: The two social networks are the long builds, so they go first and run
#: side by side.
PREPARE_APPS = (
    ("social-network", "video-pipeline"),
    ("vanilla-social-network", "media-service"),
)

#: The seed each workload runs at when the harness is given none: the
#: one its pinned sidecar was recorded with.
PINNED_SEEDS = {
    "cell-social-ursa": 1926393439,  # fig11-12 social-network/dynamic
    "api-social-autob": 252444990,  # fig11-12 social-network/constant
    "fleet": 47,  # repro.fleet.FLEET_SEED
}

#: Workload -> size -> parameters.
SIZES = {
    "cell-social-ursa": {
        "bench": {"duration_s": 90.0, "measure_from_s": 30.0},
        "full": {},
    },
    "api-social-autob": {
        "bench": {"duration_s": 120.0, "measure_from_s": 40.0},
        "full": {},
    },
    "table05-cold": {
        "bench": {"apps": ["video-pipeline"]},
        "full": {"apps": ["media-service"]},
    },
    "fleet": {
        "bench": {"cells": 4, "duration_s": 60.0, "measure_from_s": 15.0},
        "full": {"cells": 8},
    },
}

#: Outputs of the bench size at :data:`PINNED_SEEDS`, recorded from the
#: tree this benchmark was added in.  (Table V rows are pinned by the
#: committed sidecar at every size.)  A change that alters the simulated
#: timeline changes these; if it does so on purpose, record the new values.
BENCH_PINS = {
    "cell-social-ursa": {
        "digest": "aec088a3eec5ba2bfbfa631a9a5df608",
        "violation_rate": 0.0,
        "mean_cpus": 42.166666667,
        "completed_requests": 10050.0,
    },
    "api-social-autob": {
        "digest": None,  # digest off on the library path
        "violation_rate": 0.0,
        "mean_cpus": 42.869565217,
        "completed_requests": 11978.0,
    },
    "fleet": {
        "fleet_digest": "ad825dda4fb4eda4a246af4fd6216357",
        "greedy.violation_rate": 0.0,
        "static.violation_rate": 0.0,
    },
}


class Phases:
    """Set-up and bookkeeping measurements every child reports."""

    def __init__(self) -> None:
        self.values = {
            "import_s": 0.0,
            "artifact_load_s": 0.0,
            "pool_warm_s": 0.0,
            "report_s": 0.0,
            "plans": 0,
            "plan_busy_s": 0.0,
        }

    @contextlib.contextmanager
    def timed(self, name: str):
        start = time.monotonic()
        try:
            yield
        finally:
            self.values[name] += time.monotonic() - start

    def on_complete(self, _plan, result) -> None:
        """``run_many`` callback: count plans and their simulated-run wall."""
        self.values["plans"] += 1
        self.values["plan_busy_s"] += getattr(result, "wall_seconds", 0.0)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise RuntimeError(f"output check failed: {message}")


def _cell_outputs(result) -> dict:
    """The three Fig. 11/12 summaries plus the run digest, rounded as the
    results store rounds them."""
    out = {
        "digest": result.run_digest,
        "violation_rate": round(result.windowed_violation_rate, 9),
        "mean_cpus": round(result.mean_cpu_allocation, 9),
        "completed_requests": float(result.completed_requests),
    }
    _require(out["completed_requests"] > 0, "no completed requests")
    _require(0.0 <= out["violation_rate"] <= 1.0, "violation rate outside [0, 1]")
    _require(out["mean_cpus"] > 0.0, "no CPUs allocated")
    return out


def _load_exploration(apps, phases: Phases) -> None:
    from repro.experiments import artifacts

    with phases.timed("artifact_load_s"):
        for app in apps:
            artifacts.exploration_result(app)


def cell_social_ursa(params: dict, seed: int, jobs: int, phases: Phases):
    """Fig. 11/12 cell social-network / dynamic / ursa, digest on."""
    from repro.api import RunOptions, run_cell

    _load_exploration(("social-network",), phases)
    options = RunOptions(seed=seed, digest=True, **params)
    return lambda: _cell_outputs(run_cell("social-network", "dynamic", "ursa", options))


def api_social_autob(params: dict, seed: int, jobs: int, phases: Phases):
    """Library path: ``simulate`` social-network / constant / auto-b, digest off."""
    from repro.api import RunOptions, simulate

    options = RunOptions(seed=seed, **params)
    return lambda: _cell_outputs(simulate("social-network", "constant", "auto-b", options))


def table05_cold(params: dict, seed: int, jobs: int, phases: Phases):
    """Table V against an empty artifact cache: backpressure profiling plus
    Algorithm-1 exploration.  Its inputs are fixed by the artifact builders,
    so ``seed`` is unused."""
    from repro.api import run_table05
    from repro.experiments import artifacts

    apps = tuple(params["apps"])
    _require(not any(artifacts.cache_dir().iterdir()), "artifact cache is not empty")

    def run() -> dict:
        table = run_table05(apps, jobs=jobs, on_complete=phases.on_complete)
        out = {}
        for row in table.rows:
            out[f"{row.app}.digest"] = row.trace_digest
            out[f"{row.app}.samples"] = row.ursa_samples
            _require(row.ursa_samples > 0, f"{row.app}: no exploration samples")
        return out

    return run


def fleet(params: dict, seed: int, jobs: int, phases: Phases):
    """``simulate_fleet`` over a default fleet, then ``fleet_report``."""
    from repro.api import RunOptions, SLOOptions, default_fleet, simulate_fleet
    from repro.experiments.parallel import warm_pool
    from repro.fleet import fleet_report

    params = dict(params)
    spec = default_fleet(params.pop("cells"), seed=seed)
    options = RunOptions(digest=True, scale="fleet", slo=SLOOptions(), **params)
    _load_exploration(sorted({cell.app_name for cell in spec.cells}), phases)
    if jobs > 1:
        with phases.timed("pool_warm_s"):
            warm_pool(jobs)

    def run() -> dict:
        result = simulate_fleet(spec, options=options, jobs=jobs, on_complete=phases.on_complete)
        with phases.timed("report_s"):
            _text, _html, meta = fleet_report(result)
        out = {"fleet_digest": meta.extra["fleet_digest"]}
        for allocator, rate in sorted(meta.extra["fleet_violation_rate"].items()):
            _require(0.0 <= rate <= 1.0, f"{allocator}: violation rate outside [0, 1]")
            out[f"{allocator}.violation_rate"] = rate
        return out

    return run


#: Workload name -> set-up function returning the timed callable.
WORKLOADS = {
    "cell-social-ursa": cell_social_ursa,
    "api-social-autob": api_social_autob,
    "table05-cold": table05_cold,
    "fleet": fleet,
}


def pinned_outputs(name: str, size: str, root: Path) -> dict:
    """Outputs pinned for ``name`` at ``size`` and its pinned seed.

    Table V rows do not depend on a seed, so they hold at any seed.  The
    full size is pinned by the committed ``results/`` sidecars, the bench
    size by :data:`BENCH_PINS`.
    """
    results = root / "results"

    def load(path: str) -> dict:
        return json.loads((results / path).read_text())

    if name == "table05-cold":
        meta = load("table05_exploration.meta.json")
        out = {}
        for app in SIZES[name][size]["apps"]:
            out[f"{app}.digest"] = meta["digests"][app]
            out[f"{app}.samples"] = meta["summaries"][app]["ursa_samples"]
        return out
    if size == "bench":
        return dict(BENCH_PINS[name])
    if name == "fleet":
        return {"fleet_digest": load("fleet/fleet.meta.json")["extra"]["fleet_digest"]}
    meta = load("fig11_12_performance.meta.json")
    label = (
        "social-network/dynamic/ursa"
        if name == "cell-social-ursa"
        else "social-network/constant/auto-b"
    )
    out = dict(meta["summaries"][label])
    if name == "cell-social-ursa":
        out["digest"] = meta["digests"][label]
    return out


def _child(spec: dict) -> dict:
    from e2e_trace import BoundaryTracer, SpeedProbe, StackSampler

    probe = SpeedProbe().start()
    try:
        phases = Phases()
        with phases.timed("import_s"):
            import repro.api  # noqa: F401  (import cost is part of set-up)
        from repro.experiments.parallel import shutdown_pool

        name = spec["workload"]
        seed = spec["seed"] if spec["seed"] is not None else PINNED_SEEDS.get(name, 0)
        run = WORKLOADS[name](SIZES[name][spec["size"]], seed, spec["jobs"], phases)
        tracer = BoundaryTracer().install() if spec["trace"] else None
        sampler = StackSampler() if spec["trace"] else contextlib.nullcontext()
        setup_loop_s = probe.take()
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.monotonic()
        try:
            with sampler:
                outputs = run()
            raw_wall_s = time.monotonic() - start
        finally:
            if tracer is not None:
                tracer.restore()
        wall_loop_s = probe.take()
    finally:
        probe.stop()
    after = resource.getrusage(resource.RUSAGE_SELF)
    shutdown_pool()  # joins the fork pool's workers, so their usage is counted
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    # Durations are reported at the reference host speed, each rescaled by
    # the probe's reading over the interval it was measured in.
    setup_scale = SpeedProbe.normalized(1.0, setup_loop_s)
    wall_scale = SpeedProbe.normalized(1.0, wall_loop_s)
    values = phases.values
    for phase in ("import_s", "artifact_load_s", "pool_warm_s"):
        values[phase] *= setup_scale
    values["report_s"] *= wall_scale
    cpu_s = (
        after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        + children.ru_utime + children.ru_stime
    )
    layers = {}
    if tracer is not None:
        layers.update(sampler.metrics(raw_wall_s * wall_scale))
        layers.update(tracer.metrics(time_scale=wall_scale))
    return {
        "start": start,
        "raw_wall_s": raw_wall_s,
        "wall_s": raw_wall_s * wall_scale,
        "setup_loop_s": setup_loop_s,
        "wall_loop_s": wall_loop_s,
        "cpu_s": cpu_s * wall_scale,
        # ru_maxrss is in KiB on Linux; children reports the largest child.
        "peak_rss_mb": max(after.ru_maxrss, children.ru_maxrss) / 1024.0,
        "outputs": outputs,
        "phases": values,
        "layers": layers,
    }


def _prepare(apps: list[str]) -> dict:
    from repro.experiments import artifacts

    for app in apps:
        artifacts.exploration_result(app)
    return {"prepared": apps}


def main(argv: list[str]) -> int:
    record = _prepare(argv[1:]) if argv[0] == "prepare" else _child(json.loads(argv[0]))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
