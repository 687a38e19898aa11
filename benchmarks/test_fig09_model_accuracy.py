"""Fig. 9 benchmark: estimated vs measured latency, social network.

Shape target: the calibrated estimates track measurements, with mean
estimated/measured ratios near 1 (paper: 0.97-1.05).
"""

import math

from conftest import run_and_save


def test_fig09_model_accuracy(benchmark):
    result = run_and_save(benchmark, "fig09")
    ratios = {}
    for name, series in result.series.items():
        if len(series.points) >= 3:
            ratios[name] = series.mean_ratio
    assert ratios, "no class produced enough windows"
    for name, ratio in ratios.items():
        assert not math.isnan(ratio), name
        # Paper band is 0.97-1.05; allow a wider, still-tracking band at
        # the reduced quick scale.
        assert 0.7 <= ratio <= 1.4, (name, ratio)
