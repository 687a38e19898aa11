"""Ablation: Welch-t-test scaling vs naive mean-comparison scaling.

Ursa's resource controller confirms threshold crossings with Welch's
t-test to absorb load-fluctuation noise (§V item 4).  This ablation runs
the same Ursa deployment twice -- once with the t-test (alpha = 0.05) and
once effectively without it (alpha ~ 1: any arithmetic difference is
"significant").  Without the filter the controller becomes asymmetric:
scale-out fires on any upward noise, while scale-in -- which requires the
hypothetical lower-count load NOT to "exceed" the threshold -- is frozen,
because under alpha ~ 1 everything exceeds everything.  The net effect is
over-allocation with no SLA benefit; the t-test is what makes safe
scale-in possible at all.

The sweep itself lives in :mod:`repro.experiments.ablations` so its
variants can fan out across processes.
"""

from conftest import run_and_save


def test_ablation_ttest(benchmark):
    with_ttest, naive = run_and_save(benchmark, "ablation-ttest")
    # The naive variant cannot scale in (every comparison "exceeds"), so
    # it allocates at least as many CPUs for the same workload.
    assert naive["cpus"] >= with_ttest["cpus"] - 0.5
    # Neither variant should sacrifice the SLA under constant load.
    assert with_ttest["violations"] < 0.2
    assert naive["violations"] < 0.2
