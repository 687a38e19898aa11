"""Fig. 14 benchmark: adapting to the object-detect model swap.

Shape targets: the partial re-exploration touches only the changed
service and needs a small sample budget (paper: 75 samples, 1.25 h);
after recalculation the updated deployment keeps the object-detect SLA
(violation rate at or below the original's few-percent level).
"""

from conftest import run_and_save


def test_fig14_service_change(benchmark):
    result = run_and_save(benchmark, "fig14")
    # Partial exploration is small: one service's worth of samples.
    assert result.partial_samples <= 200
    assert result.partial_time_s <= 3 * 3600
    # Both deployments hold the 10 s object-detect SLA almost always.
    assert result.original.violation_rate < 0.05
    assert result.updated.violation_rate < 0.05
    # The lighter model shifts the latency CDF left (median drops).
    orig_median = dict((q, v) for v, q in result.original.cdf).get(0.5)
    new_median = dict((q, v) for v, q in result.updated.cdf).get(0.5)
    if orig_median and new_median:
        assert new_median < orig_median
