"""The committed ``BENCH_runner.json`` is a usable perf-gate baseline.

``make perf-check`` and the scheduled perf-trend job re-record the file
with ``bench_e2e.py`` and gate the fresh samples against it with
``bench_e2e.py compare``.  ``compare`` only judges the workloads both
files share, so a baseline that lost a workload, recorded a failure, or
holds too few samples to give quartiles would let a regression through
without a word.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Timed invocations per workload that ``make perf`` records.
MIN_SAMPLES = 10


def test_runner_baseline_covers_every_benchmark_workload():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads((ROOT / "BENCH_runner.json").read_text())
    assert baseline["size"] == "bench"
    assert baseline["seed"] is None, "recorded off the pinned seeds"
    recorded = baseline["workloads"]
    for workload in bench["workloads"]:
        name = workload["name"]
        assert name in recorded, f"{name} missing from the baseline"
        assert recorded[name]["failed"] == 0, f"{name} recorded failures"
        for metric in bench["end_to_end"]:
            if metric["name"] == "success_rate":
                continue  # one sample per run by construction
            samples = recorded[name]["samples"][metric["name"]]
            assert len(samples) >= MIN_SAMPLES, (name, metric["name"], len(samples))
