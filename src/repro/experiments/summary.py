"""Aggregate the rendered ``results/`` files into one digest.

``python -m repro summary`` prints every regenerated table/figure in
the registry's paper order with a one-line provenance header -- handy
after a full benchmark run.  Experiments without a summary title
(``fleet``, ``summary`` itself) stay out.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.registry import EXPERIMENTS

__all__ = ["results_dir", "summarize"]


def results_dir() -> Path:
    return Path(__file__).resolve().parents[3] / "results"


def summarize(directory: Path | None = None) -> str:
    """One digest string over all present result files."""
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
    if missing:
        blocks.append(
            "missing (run `pytest benchmarks/ --benchmark-only`): "
            + ", ".join(missing)
        )
    if not blocks:
        return "no results yet — run `pytest benchmarks/ --benchmark-only`"
    return "\n\n".join(blocks)
