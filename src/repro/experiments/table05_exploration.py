"""Table V -- exploration overhead: Ursa vs Sinan/Firm.

Ursa's numbers are *measured*: Algorithm 1 runs per service, samples are
summed over services, and the reported exploration time is the longest
single-service profiling time (services profile independently / in
parallel).  A cold run builds them that way too: each app's backpressure
profiling and exploration fan out one plan per service over the worker
pool, so its wall time follows the slowest service rather than the sum.
Sinan and Firm are accounted at the paper-prescribed training budget --
10,000 samples at the shared once-per-minute sampling frequency (166.7 h)
-- since that is what those systems *require* per their own papers; the
actually-simulated training for the performance experiments uses a
smaller budget (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments import artifacts
from repro.experiments.report import render_table
from repro.experiments.runner import scale_profile
from repro.experiments.store import RunMeta

__all__ = [
    "ExplorationOverheadRow",
    "run_table05",
    "ML_PRESCRIBED_SAMPLES",
    "experiment_meta",
]

#: §VII-C: 10k samples for Sinan and Firm, sampled once per minute.
ML_PRESCRIBED_SAMPLES = 10_000
ML_SAMPLE_PERIOD_S = 60.0

#: Applications in the table (paper rows: Social, Media, Video).
TABLE5_APPS = ("social-network", "media-service", "video-pipeline")


@dataclass
class ExplorationOverheadRow:
    app: str
    ursa_samples: int
    ursa_time_h: float
    ml_samples: int
    ml_time_h: float
    #: Combined per-service event-trace digest of the Algorithm-1 runs that
    #: built the app's profiles (empty when the artefact has none).
    trace_digest: str = ""

    @property
    def sample_reduction(self) -> float:
        return self.ml_samples / max(1, self.ursa_samples)

    @property
    def time_reduction(self) -> float:
        return self.ml_time_h / max(1e-9, self.ursa_time_h)


@dataclass
class Table05:
    rows: list[ExplorationOverheadRow]

    def render(self) -> str:
        return render_table(
            [
                "App",
                "Ursa samples",
                "Ursa time (h)",
                "Sinan/Firm samples",
                "Sinan/Firm time (h)",
                "sample x",
                "time x",
            ],
            [
                (
                    r.app,
                    r.ursa_samples,
                    f"{r.ursa_time_h:.2f}",
                    r.ml_samples,
                    f"{r.ml_time_h:.1f}",
                    f"{r.sample_reduction:.1f}",
                    f"{r.time_reduction:.1f}",
                )
                for r in self.rows
            ],
            title="Table V: exploration overhead",
        )


def _row(app_name: str, jobs: int | None, on_complete) -> ExplorationOverheadRow:
    """One table row; runs (or loads the cached) Algorithm 1 for one app."""
    exploration = artifacts.exploration_result(
        app_name, jobs=jobs, on_complete=on_complete
    )
    return ExplorationOverheadRow(
        app=app_name,
        ursa_samples=exploration.total_samples,
        ursa_time_h=exploration.exploration_time_s / 3600.0,
        ml_samples=ML_PRESCRIBED_SAMPLES,
        ml_time_h=ML_PRESCRIBED_SAMPLES * ML_SAMPLE_PERIOD_S / 3600.0,
        trace_digest=exploration.trace_digest or "",
    )


def run_table05(
    apps: tuple[str, ...] = TABLE5_APPS,
    jobs: int | None = None,
    on_complete=None,
) -> Table05:
    """One row per app, built app by app in this process.

    A cold artifact build fans out inside each app -- one plan per
    service on ``jobs`` workers -- so there is one level of fan-out and
    ``on_complete`` fires once per service plan, labelled
    ``table05:<app>/<service>``.  Every service's run is fixed by its
    salt, so rows and digests are the same at every job count; a warm
    cache starts no pool at all.
    """
    progress = (
        None
        if on_complete is None
        else lambda plan, result: on_complete(
            replace(plan, label=f"table05:{plan.label}"), result
        )
    )
    return Table05(rows=[_row(app, jobs, progress) for app in apps])


def experiment_meta(table: Table05) -> RunMeta:
    """Provenance sidecar for Table V.

    Every service's exploration environment is digested and the app's
    combined digest rides inside the cached artefact, so even warm-cache
    runs pin the engine-level fingerprint of the Algorithm-1 runs that
    built each app's profiles.
    """
    return RunMeta(
        experiment="table05",
        scale=scale_profile().name,
        seeds={},
        digests={r.app: r.trace_digest for r in table.rows if r.trace_digest},
        summaries={
            r.app: {
                "ursa_samples": float(r.ursa_samples),
                "ursa_time_h": round(r.ursa_time_h, 6),
            }
            for r in table.rows
        },
    )
