"""Fig. 4 benchmark: backpressure-free threshold profiling.

Shape targets: the profiler converges; thresholds land in the 35-75 %
utilisation band (paper: 46.2 % and 60.0 %); proxy latency before
convergence is several times its converged value.
"""

from conftest import run_and_save


def test_fig04_thresholds(benchmark):
    curves = run_and_save(benchmark, "fig04")
    for name, profile in curves.profiles.items():
        assert 0.30 <= profile.threshold_utilization <= 0.80, name
        converged = profile.points[-1].proxy_p99_mean
        peak = max(p.proxy_p99_mean for p in profile.points)
        # Significant backpressure before convergence: >5x inflation.
        assert peak > 5.0 * converged, name
        # Utilisation decreases as the CPU limit grows.
        utils = [p.utilization for p in profile.points]
        assert utils[0] > utils[-1], name
