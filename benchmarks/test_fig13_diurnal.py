"""Fig. 13 benchmark: Ursa's allocations track a diurnal load.

Shape target: per-service allocated CPUs correlate positively with the
service's load over the diurnal cycle for the services that need to scale
(the load peaks at ~2.6x the trough, so at least the bottleneck services
must add and remove replicas).
"""

from conftest import run_and_save


def test_fig13_diurnal(benchmark):
    trace = run_and_save(benchmark, "fig13")
    assert trace.traces, "no services traced"
    correlations = {
        name: t.correlation()
        for name, t in trace.traces.items()
        if len(t.cpus) >= 5
    }
    scaled_services = {
        name: t
        for name, t in trace.traces.items()
        if max(v for _, v in t.cpus) > min(v for _, v in t.cpus)
    }
    # At least one representative service scales with the cycle, and every
    # service that does scale correlates positively with its load.
    assert scaled_services, "no service scaled over the diurnal cycle"
    for name in scaled_services:
        assert correlations[name] > 0.2, (name, correlations[name])
