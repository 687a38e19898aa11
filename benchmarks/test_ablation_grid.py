"""Ablation: percentile-grid resolution of the Theorem 1 discretisation.

The MIP discretises per-service percentiles onto a grid ``P``.  A coarser
grid restricts the residual-budget splits the optimiser may choose, which
can only *increase* the optimal resource cost; a finer grid refines it at
higher solve cost.  The sweep derives coarser grids as column subsets of
the exploration grid (the latency data is shared), so objectives are
directly comparable.

The sweep itself lives in :mod:`repro.experiments.ablations` so its
cells can fan out across processes.
"""

from conftest import run_and_save


def test_ablation_grid(benchmark):
    (objectives,) = run_and_save(benchmark, "ablation-grid")
    # A finer grid's feasible splits are a superset of a coarser grid's,
    # so the optimum can only improve (or stay) as the grid refines.
    if objectives["coarse-2"] != float("inf"):
        assert objectives["mid-4"] <= objectives["coarse-2"] + 1e-9
    if objectives["mid-4"] != float("inf"):
        assert objectives["full-8"] <= objectives["mid-4"] + 1e-9
    assert objectives["full-8"] != float("inf")
