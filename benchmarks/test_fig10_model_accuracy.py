"""Fig. 10 benchmark: estimated vs measured latency, video pipeline.

Shape target: both priority classes' estimates track measurements (paper
mean ratios 0.96 and 1.00, at the p50/p99 SLA percentiles respectively).
"""

import math

from conftest import run_and_save


def test_fig10_model_accuracy(benchmark):
    result = run_and_save(benchmark, "fig10")
    for name, series in result.series.items():
        if len(series.points) < 3:
            continue
        ratio = series.mean_ratio
        assert not math.isnan(ratio), name
        assert 0.6 <= ratio <= 1.5, (name, ratio)
