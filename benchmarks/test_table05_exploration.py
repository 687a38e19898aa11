"""Table V benchmark: exploration overhead, Ursa vs Sinan/Firm.

Shape targets: Ursa needs far fewer samples (paper: >=16.7x) and far less
wall time (paper: >=128x) than the ML systems' prescribed 10k-sample
budget.  At the quick scale profile the measured reductions are of the
same order, not identical.
"""

from conftest import run_and_save


def test_table05_exploration(benchmark):
    table = run_and_save(benchmark, "table05")
    for row in table.rows:
        # Ursa collects hundreds, not thousands, of samples.
        assert row.ursa_samples < 2000, row.app
        assert row.sample_reduction > 5.0, row.app
        assert row.time_reduction > 50.0, row.app
        # Exploration time is bounded by the longest single service.
        assert row.ursa_time_h < 2.0, row.app
