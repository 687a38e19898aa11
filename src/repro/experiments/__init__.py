"""Per-table/figure reproduction harnesses (see DESIGN.md's index).

Modules:

* :mod:`repro.experiments.fig02_backpressure` -- Fig. 2 heatmaps.
* :mod:`repro.experiments.fig04_thresholds` -- Fig. 4 threshold curves.
* :mod:`repro.experiments.table05_exploration` -- Table V overheads.
* :mod:`repro.experiments.fig09_10_model_accuracy` -- Figs. 9/10.
* :mod:`repro.experiments.fig11_12_performance` -- Figs. 11/12.
* :mod:`repro.experiments.fig13_diurnal` -- Fig. 13 traces.
* :mod:`repro.experiments.table06_control_plane` -- Table VI latencies.
* :mod:`repro.experiments.fig14_service_change` -- Fig. 14 / §VII-G.
* :mod:`repro.experiments.registry` -- one record per experiment
  (CLI name, results stem, summary title, accepted flags, runner), read
  by the CLI, ``summary`` and ``benchmarks/``.  Nothing on the
  ``import repro.api`` path imports it.

Shared infrastructure: :mod:`repro.experiments.runner` (deployment loop,
scale profiles), :mod:`repro.experiments.parallel` (process-pool fan-out
for independent runs), :mod:`repro.experiments.artifacts` (cached
exploration data and trained baselines), :mod:`repro.experiments.managers`
(manager factories), :mod:`repro.experiments.report` (table/series
rendering), :mod:`repro.experiments.store` (results sidecars),
:mod:`repro.experiments.ablations` (design-knockout sweeps).

The package itself imports nothing and re-exports nothing: importing
one submodule (``from repro.experiments import cli``) loads that module
and its own imports only, so ``python -m repro --help`` never loads the
simulator or numpy.  The supported entry points are in :mod:`repro.api`.
"""
