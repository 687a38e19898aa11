"""Command-line entry point: ``python -m repro <experiment>``.

Runs a single paper experiment and prints its rendered tables/series --
convenient for exploring results without pytest.  Expensive shared
artefacts are cached exactly as in the benchmarks (``.repro_cache/``).

The experiments, their result names and the flags each accepts come
from :mod:`repro.experiments.registry`.  Grid-style experiments fan their
independent runs out across ``--jobs`` worker processes via
:mod:`repro.experiments.parallel`; output is identical for any job count.
``fig04`` and ``table05`` fan out one plan per profiled service
(``table05`` only when it has artefacts to build).
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments import registry

__all__ = ["main"]


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


def _only(flag: str) -> str:
    """Help suffix naming the experiments whose records accept ``flag``."""
    names = [e.name for e in registry.EXPERIMENTS if e.accepts(flag)]
    return "only " + ", ".join(names)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce one Ursa (HPCA 2024) table or figure.",
    )
    parser.add_argument(
        "experiment", choices=[e.name for e in registry.EXPERIMENTS]
    )
    parser.add_argument(
        "--apps",
        default=None,
        help=(
            "comma-separated application subset; prints only, so not with "
            f"--save or --report ({_only('--apps')})"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes for grid experiments (default: scheduler-"
            "visible CPU count, or the REPRO_JOBS env var); results are "
            f"identical for any value ({_only('--jobs')})"
        ),
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help=(
            "print a line to stderr as each fanned-out run completes; "
            f"never affects results ({_only('--progress')})"
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
            "files under results/traces/; tracing is a pure observer and "
            f"never changes results ({_only('--dump-traces')})"
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
            f"results store ({_only('--report')})"
        ),
    )
    parser.add_argument(
        "--cells",
        type=int,
        default=None,
        metavar="N",
        help=(
            "number of tenant cells in the fleet (default 8, or 4 with "
            f"--smoke; {_only('--cells')})"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "CI-sized fleet run: 4 cells by default and shortened per-"
            "cell durations; --save persists as fleet_smoke instead of "
            f"fleet ({_only('--smoke')})"
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
    experiment = registry.get(args.experiment)
    given = {
        "--apps": args.apps is not None,
        "--jobs": args.jobs is not None,
        "--progress": args.progress,
        "--dump-traces": args.dump_traces is not None,
        "--report": args.report,
        "--cells": args.cells is not None,
        "--smoke": args.smoke,
        "--save": args.save,
    }
    rejected = [f for f, on in given.items() if on and not experiment.accepts(f)]
    if rejected:
        parser.error(
            f"{', '.join(rejected)} not supported for {experiment.name!r}"
        )
    if args.apps is not None and (args.save or args.report):
        # A subset grid has its own seeds, so the store would take it for
        # a new identity and overwrite the pinned full grid.
        parser.error("--apps cannot be combined with --save or --report")
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.cells is not None and args.cells < 1:
        parser.error(f"--cells must be >= 1, got {args.cells}")
    if args.dump_traces is not None and args.dump_traces < 1:
        parser.error(f"--dump-traces must be >= 1, got {args.dump_traces}")
    outcome = experiment.run(
        registry.Request(
            jobs=args.jobs,
            on_complete=_ProgressReporter() if args.progress else None,
            apps=tuple(args.apps.split(",")) if args.apps else None,
            trace=args.dump_traces is not None,
            report=args.report,
            cells=args.cells,
            smoke=args.smoke,
        )
    )
    print(outcome.text)
    if args.save:
        print(f"[saved to {registry.save(outcome)}]", file=sys.stderr)
    if outcome.report is not None:
        print(outcome.report.text)
        path = registry.save(outcome.report)
        print(
            f"[report saved to {path} + {outcome.report.name}.html]",
            file=sys.stderr,
        )
    if args.dump_traces is not None and outcome.traces:
        from repro.experiments.traces import dump_slowest_traces

        paths = dump_slowest_traces(
            outcome.traces, args.dump_traces, "results/traces", outcome.name
        )
        print(
            f"[wrote {len(paths)} trace files under "
            f"results/traces/{outcome.name}/]",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
