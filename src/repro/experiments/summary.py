"""Aggregate the rendered ``results/`` files into one digest.

``python -m repro summary`` prints every regenerated table/figure in
the registry's paper order with a one-line provenance header -- handy
after a full benchmark run.  Experiments without a summary title
(``fleet``, ``summary`` itself) stay out.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.store import results_dir

__all__ = ["summarize"]


def summarize(directory: Path | None = None) -> str:
    """One digest string over all present result files.

    ``directory`` defaults to :func:`~repro.experiments.store.results_dir`,
    so ``REPRO_RESULTS_DIR`` redirects the summary as it does ``--save``.
    """
    base = directory if directory is not None else results_dir()
    blocks = []
    missing = []
    for experiment in EXPERIMENTS:
        stem, title = experiment.stem, experiment.title
        if stem is None or title is None:
            continue
        path = base / f"{stem}.txt"
        if path.exists():
            rule = "=" * len(title)
            blocks.append(f"{title}\n{rule}\n{path.read_text().rstrip()}")
        else:
            missing.append(stem)
    if not blocks:
        blocks.append("no results yet")
    if missing:
        blocks.append(
            "missing (run `pytest benchmarks/ --benchmark-only`): "
            + ", ".join(missing)
        )
    return "\n\n".join(blocks)
