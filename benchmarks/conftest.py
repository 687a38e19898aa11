"""Shared benchmark helper.

Each benchmark regenerates one paper table/figure through its
:mod:`repro.experiments.registry` record, runs it exactly once
(``benchmark.pedantic`` with one round -- the simulations are long), and
saves it exactly as ``python -m repro <name> --save`` does: the results
store writes ``results/<stem>.txt`` plus a ``.meta.json`` provenance
sidecar and *fails* if a recorded deterministic run no longer reproduces
(set ``REPRO_RESULTS_UPDATE=1`` to accept an intentional change).
"""

from __future__ import annotations

from repro.experiments import registry


def run_and_save(benchmark, name: str):
    """Run experiment ``name`` once, save its outcome, return its result."""
    outcome = benchmark.pedantic(registry.get(name).run, rounds=1, iterations=1)
    path = registry.save(outcome)
    print(f"\n{outcome.text}\n[saved to {path}]")
    return outcome.result
