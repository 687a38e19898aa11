"""Statistical utilities: Welch's t-test, empirical distributions."""

from repro.stats.distributions import (
    DEFAULT_PERCENTILE_GRID,
    EmpiricalDistribution,
    percentile,
)
from repro.stats.histogram import FixedHistogram
from repro.stats.ttest import TTestResult, mean_exceeds, means_differ, welch_t_test

__all__ = [
    "DEFAULT_PERCENTILE_GRID",
    "EmpiricalDistribution",
    "FixedHistogram",
    "TTestResult",
    "mean_exceeds",
    "means_differ",
    "percentile",
    "welch_t_test",
]
