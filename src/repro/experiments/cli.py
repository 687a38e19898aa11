"""Command-line entry point: ``python -m repro <experiment>``.

Runs a single paper experiment and prints its rendered tables/series --
convenient for exploring results without pytest.  Expensive shared
artefacts are cached exactly as in the benchmarks (``.repro_cache/``).

Grid-style experiments (``fig04``, ``fig11-12``, ``fig13``, ``fig14``,
``table05``, ``fleet``) fan their independent runs out across ``--jobs``
worker processes via :mod:`repro.experiments.parallel`; output is
identical for any job count.  ``fig04`` and ``table05`` fan out one plan
per profiled service (``table05`` only when it has artefacts to build).
"""

from __future__ import annotations

import argparse
import sys
import time

__all__ = ["main"]

EXPERIMENTS = (
    "fig02",
    "fig04",
    "table05",
    "fig09",
    "fig10",
    "fig11-12",
    "fig13",
    "table06",
    "fig14",
    "fleet",
    "summary",
)


class _ProgressReporter:
    """Per-run completion lines on stderr (``--progress``).

    Fires from :func:`repro.experiments.parallel.run_many`'s
    ``on_complete`` hook in the parent process; completion order may
    differ from plan order under ``--jobs > 1``, which is fine for a
    progress log.  Results themselves stay ordered by plan.
    """

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.done = 0
        self._t0 = time.perf_counter()

    def __call__(self, plan, _result) -> None:
        self.done += 1
        elapsed = time.perf_counter() - self._t0
        label = plan.label or getattr(plan.fn, "__name__", "run")
        print(
            f"[{elapsed:7.1f}s] done #{self.done}: {label}",
            file=self.stream,
            flush=True,
        )


#: Experiments whose runs can sample span trees (``--dump-traces``).
_TRACEABLE = frozenset({"fig09", "fig10", "fig11-12"})


def _run(
    name: str,
    apps: list[str] | None,
    jobs: int | None,
    on_complete=None,
    trace_runs: bool = False,
    report_runs: bool = False,
    cells: int = 8,
    smoke: bool = False,
):
    """Run one experiment.

    Returns ``(text, meta, jsonl_by_source, report, html)``.  ``meta``
    is the provenance :class:`~repro.experiments.store.RunMeta`
    persisted alongside the text when ``--save`` is given; ``summary``
    aggregates other results and carries no provenance of its own.
    ``jsonl_by_source`` holds each traced run's serialized span trees
    (non-empty only with ``trace_runs``, for ``--dump-traces``).
    ``report`` is the ``(text, html, meta)`` dashboard bundle when
    ``report_runs`` (fig11-12 only); ``html`` is an HTML rendering of
    the main output saved as a sidecar-recorded artifact (fleet only).
    """
    if name == "fleet":
        from repro.api import RunOptions, SLOOptions, simulate_fleet
        from repro.fleet import default_fleet, fleet_report

        options = RunOptions(digest=True, scale="fleet", slo=SLOOptions())
        if smoke:
            # CI-sized fleet: shorter cells (the probe epoch derives its
            # own durations from these), same determinism guarantees.
            options = options.replace(duration_s=160.0, measure_from_s=40.0)
        result = simulate_fleet(
            default_fleet(cells),
            options=options,
            jobs=jobs,
            on_complete=on_complete,
        )
        text, html, meta = fleet_report(result)
        return text, meta, {}, None, html
    if name == "fig02":
        from repro.experiments.fig02_backpressure import (
            experiment_meta,
            render_report,
            run_all_chains,
        )

        heatmaps = run_all_chains()
        return render_report(heatmaps), experiment_meta(heatmaps), {}, None, None
    if name == "fig04":
        from repro.experiments.fig04_thresholds import (
            experiment_meta,
            run_threshold_profiling,
        )

        curves = run_threshold_profiling(jobs=jobs, on_complete=on_complete)
        return curves.render(), experiment_meta(curves), {}, None, None
    if name == "table05":
        from repro.experiments.table05_exploration import (
            experiment_meta,
            run_table05,
        )

        table = run_table05(jobs=jobs, on_complete=on_complete)
        return table.render(), experiment_meta(table), {}, None, None
    if name in ("fig09", "fig10"):
        from repro.experiments.fig09_10_model_accuracy import (
            FIG9_10_SEED,
            FIG9_CLASSES,
            experiment_meta,
            run_model_accuracy,
        )
        from repro.experiments.runner import RunOptions, TracingOptions

        app_name, classes = (
            ("social-network", FIG9_CLASSES)
            if name == "fig09"
            else ("video-pipeline", ("high-priority", "low-priority"))
        )
        result = run_model_accuracy(
            app_name,
            classes,
            options=RunOptions(
                seed=FIG9_10_SEED,
                digest=True,
                tracing=TracingOptions() if trace_runs else None,
            ),
        )
        sources = (
            {app_name: result.traces.jsonl} if result.traces is not None else {}
        )
        return (
            result.render(),
            experiment_meta(result, _RESULT_NAMES[name]),
            sources,
            None,
            None,
        )
    if name == "fig11-12":
        from repro.experiments.fig11_12_performance import (
            FIG11_12_SEED,
            experiment_meta,
            report_artifacts,
            run_performance_grid,
        )
        from repro.experiments.runner import (
            RunOptions,
            SLOOptions,
            TracingOptions,
        )

        grid = run_performance_grid(
            tuple(apps)
            if apps
            else (
                "social-network",
                "vanilla-social-network",
                "media-service",
                "video-pipeline",
            ),
            options=RunOptions(
                seed=FIG11_12_SEED,
                digest=True,
                tracing=(
                    TracingOptions() if (trace_runs or report_runs) else None
                ),
                slo=SLOOptions() if report_runs else None,
            ),
            jobs=jobs,
            on_complete=on_complete,
        )
        text = grid.violation_table() + "\n\n" + grid.cpu_table()
        sources = {
            f"{app}.{load}.{manager}": result.traces.jsonl
            for (app, load, manager), result in sorted(grid.results.items())
            if result is not None and result.traces is not None
        }
        report = report_artifacts(grid) if report_runs else None
        return text, experiment_meta(grid), sources, report, None
    if name == "fig13":
        from repro.experiments.fig13_diurnal import (
            experiment_meta,
            run_diurnal_trace,
        )

        trace = run_diurnal_trace(jobs=jobs, on_complete=on_complete)
        return trace.render(), experiment_meta(trace), {}, None, None
    if name == "table06":
        from repro.experiments.table06_control_plane import (
            experiment_meta,
            run_table06,
        )

        table = run_table06()
        return table.render(), experiment_meta(table), {}, None, None
    if name == "fig14":
        from repro.experiments.fig14_service_change import (
            experiment_meta,
            run_service_change,
        )

        result = run_service_change(jobs=jobs, on_complete=on_complete)
        return result.render(), experiment_meta(result), {}, None, None
    if name == "summary":
        from repro.experiments.summary import summarize

        return summarize(), None, {}, None, None
    raise ValueError(f"unknown experiment {name!r}")


#: CLI experiment name -> results-store name (shared with benchmarks/,
#: so ``--save`` updates the same sidecars the benchmark suite checks).
_RESULT_NAMES = {
    "fig02": "fig02_backpressure",
    "fig04": "fig04_thresholds",
    "table05": "table05_exploration",
    "fig09": "fig09_model_accuracy",
    "fig10": "fig10_model_accuracy",
    "fig11-12": "fig11_12_performance",
    "fig13": "fig13_diurnal",
    "table06": "table06_control_plane",
    "fig14": "fig14_service_change",
    # "fleet" saves as fleet_smoke instead when --smoke is given; both
    # route to results/fleet/ via the sidecar's scale field.
    "fleet": "fleet",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce one Ursa (HPCA 2024) table or figure.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument(
        "--apps",
        help="comma-separated application subset (fig11-12 only)",
        default=None,
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for grid experiments (default: scheduler-"
            "visible CPU count, or the REPRO_JOBS env var); results are "
            "identical for any value"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "print a line to stderr as each fanned-out run completes "
            "(grid experiments only); never affects results"
        ),
    )
    parser.add_argument(
        "--dump-traces",
        type=int,
        default=None,
        metavar="N",
        help=(
            "sample span trees during the run and persist the N slowest "
            "sampled requests per request class as Chrome trace_event "
            "files under results/traces/ (fig09, fig10, fig11-12); "
            "tracing is a pure observer and never changes results"
        ),
    )
    parser.add_argument(
        "--report",
        action="store_true",
        help=(
            "run with the SLO monitor and span tracing on (both pure "
            "observers; results are unchanged) and persist the "
            "deterministic run dashboard -- results/fig11_12_report.txt "
            "plus a standalone fig11_12_report.html pinned by the "
            "results store (fig11-12 only)"
        ),
    )
    parser.add_argument(
        "--cells",
        type=int,
        default=None,
        metavar="N",
        help=(
            "number of tenant cells in the fleet (fleet only; default 8, "
            "or 4 with --smoke)"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "CI-sized fleet run: 4 cells by default and shortened per-"
            "cell durations; --save persists as fleet_smoke instead of "
            "fleet (fleet only)"
        ),
    )
    parser.add_argument(
        "--save",
        action="store_true",
        help=(
            "persist the rendered output and its provenance sidecar to "
            "results/ via the results store (fails if a recorded "
            "deterministic run no longer reproduces; set "
            "REPRO_RESULTS_UPDATE=1 to accept the change)"
        ),
    )
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.save and args.experiment not in _RESULT_NAMES:
        parser.error(f"--save is not supported for {args.experiment!r}")
    if args.report and args.experiment != "fig11-12":
        parser.error("--report is only supported for fig11-12")
    if args.experiment != "fleet" and (args.cells is not None or args.smoke):
        parser.error("--cells/--smoke are only supported for fleet")
    if args.cells is not None and args.cells < 1:
        parser.error(f"--cells must be >= 1, got {args.cells}")
    cells = args.cells if args.cells is not None else (4 if args.smoke else 8)
    if args.dump_traces is not None:
        if args.experiment not in _TRACEABLE:
            parser.error(
                f"--dump-traces is not supported for {args.experiment!r} "
                f"(traceable: {', '.join(sorted(_TRACEABLE))})"
            )
        if args.dump_traces < 1:
            parser.error(f"--dump-traces must be >= 1, got {args.dump_traces}")
    apps = args.apps.split(",") if args.apps else None
    on_complete = _ProgressReporter() if args.progress else None
    if args.experiment in ("fig11-12", "fig13", "fig14", "fleet", "summary"):
        from repro.experiments.parallel import default_jobs, warm_pool

        # One worker pool per CLI invocation: warmed here, reused by
        # every grid the experiment fans out (see repro.experiments
        # .parallel; workers fork after imports are done).  fig04 and
        # table05 leave it to their first pooled plan, so a warm table05
        # cache never starts one.
        if (args.jobs or default_jobs()) > 1:
            warm_pool(args.jobs)
    text, meta, trace_sources, report, html = _run(
        args.experiment,
        apps,
        args.jobs,
        on_complete=on_complete,
        trace_runs=args.dump_traces is not None,
        report_runs=args.report,
        cells=cells,
        smoke=args.smoke,
    )
    print(text)
    if args.save and meta is not None:
        from repro.experiments import store

        result_name = _RESULT_NAMES[args.experiment]
        if args.experiment == "fleet" and args.smoke:
            result_name = "fleet_smoke"
        path = store.save_result(
            result_name,
            text,
            meta,
            artifacts=(
                {f"{result_name}.html": html} if html is not None else None
            ),
        )
        print(f"[saved to {path}]", file=sys.stderr)
    if report is not None:
        from repro.experiments import store

        report_text, report_html, report_meta = report
        print(report_text)
        path = store.save_result(
            "fig11_12_report",
            report_text,
            report_meta,
            artifacts={"fig11_12_report.html": report_html},
        )
        print(
            f"[report saved to {path} + fig11_12_report.html]",
            file=sys.stderr,
        )
    if args.dump_traces is not None and trace_sources:
        from repro.experiments.traces import dump_slowest_traces

        paths = dump_slowest_traces(
            trace_sources,
            args.dump_traces,
            "results/traces",
            _RESULT_NAMES[args.experiment],
        )
        print(
            f"[wrote {len(paths)} trace files under "
            f"results/traces/{_RESULT_NAMES[args.experiment]}/]",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
