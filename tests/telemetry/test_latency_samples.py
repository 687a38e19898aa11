"""Latency samples are packed, and pooling windows changes no value.

A run keeps every request's latency until it ends, so the bytes per
sample set how a long run's memory grows.  Pooling the windows of a
query in one sort must give exactly what merging them one window at a
time gave: the same values, in the same order, to the bit.
"""

import tracemalloc
from array import array

import numpy as np

from repro.stats.distributions import percentile
from repro.telemetry.metrics import MetricsHub

SAMPLES = 100_000


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_latency_samples_take_8_bytes_each():
    clock = FakeClock()
    hub = MetricsHub(clock, window_s=60.0)
    handle = hub.latency_handle("request_latency", {"request": "r"})
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for i in range(SAMPLES):
            clock.now = i * 0.006  # ten one-minute windows
            handle.record(i * 1e-4)  # a fresh float, as a real latency is
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hub.latency_distribution("request_latency", 0, 600, {"request": "r"}).count == SAMPLES
    # A list of Python floats held about 3.2 MB here (32 B per sample).
    assert after - before < 1.5e6


def _pairwise_merge(windows: list[list[float]]) -> list[float]:
    """How the hub pooled windows before: one sorted merge per window."""
    pooled: list[float] = []
    for values in windows:
        pooled = sorted(pooled + values)
    return pooled


def test_pooled_windows_equal_the_pairwise_merge_bit_for_bit():
    rng = np.random.default_rng(7)
    clock = FakeClock()
    hub = MetricsHub(clock, window_s=1.0)
    handle = hub.latency_handle("request_latency", {"request": "r"})
    recorded: list[list[float]] = []
    for window in range(40):
        # Rounded draws make ties; zeros of both signs compare equal, so
        # only a stable pooling keeps their order.
        values = [float(v) for v in np.round(rng.exponential(0.05, 200), 3)]
        values += [0.0, -0.0, 0.0] if window % 3 else [-0.0]
        values = [values[i] for i in rng.permutation(len(values))]
        clock.now = window + 0.5
        for value in values:
            handle.record(value)
        recorded.append(values)
    expected = _pairwise_merge(recorded[5:35])
    pooled = hub.latency_distribution("request_latency", 5.0, 35.0, {"request": "r"})
    assert array("d", pooled.samples()).tobytes() == array("d", expected).tobytes()
    assert pooled.mean == sum(expected) / len(expected)
    for q in (0, 50, 90, 99, 99.9, 100):
        assert pooled.percentile(q) == percentile(expected, q)
