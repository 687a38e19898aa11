"""Sinan's training-data collection process (§VII-B/C).

Runs the application under its exploration workload while randomising
resource allocations window by window, recording (features, next-window
latency, violation-within-horizon) tuples.  The sampler keeps the ratio of
violating to meeting samples near 1:1 so the trained models are unbiased
(the paper's stated collection goal): when violations lag, it biases
toward tighter allocations, and vice versa.

The paper trains Sinan and Firm on **10,000 samples** collected at one per
minute (~166.7 h) -- the Table V figures.  The collector here accepts any
budget; the exploration-overhead benchmark accounts Sinan/Firm at the
paper-prescribed budget while the performance experiments train on a
simulation-sized sample set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.topology import AppSpec
from repro.baselines.sinan.features import FeatureSchema
from repro.core.exploration import start_profiling_run
from repro.errors import ExplorationError
from repro.sim.random import RandomStreams
from repro.workload.mixes import RequestMix

__all__ = ["TrainingSample", "SinanDataset", "SinanDataCollector"]

#: A sample's violation label looks this many windows ahead.
LOOKAHEAD_WINDOWS = 2


@dataclass
class TrainingSample:
    features: np.ndarray
    #: per-class p99 latency in the following window (seconds).
    next_latency: np.ndarray
    #: 1 if any class violates its SLA within the lookahead horizon.
    violation: int


@dataclass
class SinanDataset:
    schema: FeatureSchema
    samples: list[TrainingSample] = field(default_factory=list)
    collection_time_s: float = 0.0

    @property
    def size(self) -> int:
        return len(self.samples)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = np.vstack([s.features for s in self.samples])
        y = np.vstack([s.next_latency for s in self.samples])
        v = np.asarray([s.violation for s in self.samples])
        return x, y, v


class SinanDataCollector:
    """Randomised-allocation data collection with 1:1 violation balancing."""

    def __init__(
        self,
        streams: RandomStreams,
        window_s: float = 60.0,
        settle_s: float = 20.0,
    ) -> None:
        self.streams = streams
        self.window_s = float(window_s)
        self.settle_s = float(settle_s)

    def collect(
        self,
        spec: AppSpec,
        mix: RequestMix,
        rps: float,
        n_samples: int,
        seed_salt: int = 0,
    ) -> SinanDataset:
        """Collect ``n_samples`` (one per window) on a fresh deployment."""
        if n_samples < LOOKAHEAD_WINDOWS + 1:
            raise ExplorationError("sample budget smaller than the lookahead")
        schema = FeatureSchema.for_spec(spec)
        app, _generator, provisioning = start_profiling_run(
            spec,
            mix,
            rps,
            self.streams,
            seed_salt,
            window_s=self.window_s,
            warmup_s=60.0,
        )
        env = app.env

        rng = self.streams.stream(f"sinan-collect:{spec.name}:{seed_salt}")
        dataset = SinanDataset(schema=schema)
        t_start = env.now
        # Rolling log of (feature, per-class p99s of later windows).
        pending: list[tuple[np.ndarray, list[np.ndarray], list[bool]]] = []
        violations_so_far = 0
        records = 0

        def window_stats(w0: float, w1: float) -> tuple[np.ndarray, bool]:
            p99s = []
            violated = False
            for rc in spec.request_classes:
                dist = app.hub.latency_distribution(
                    "request_latency", w0, w1, {"request": rc.name}
                )
                if dist:
                    p = dist.percentile(rc.sla.percentile)
                    p99s.append(p)
                    if dist.count >= 10 and p > rc.sla.target_s:
                        violated = True
                else:
                    p99s.append(0.0)
            return np.asarray(p99s), violated

        while records < n_samples:
            # Randomise the allocation, biased to balance violations 1:1.
            want_violation = violations_so_far < records / 2.0
            for name, generous in provisioning.items():
                if want_violation:
                    replicas = max(1, int(rng.integers(1, max(2, generous))))
                else:
                    replicas = max(
                        1, generous + int(rng.integers(-1, 2))
                    )
                app.scale(name, replicas)
            env.run(until=env.now + self.settle_s)
            w0 = env.now
            env.run(until=w0 + self.window_s)
            features = schema.observe(app, w0, env.now)
            pending.append((features, [], []))
            # Attribute this window's outcome to earlier pending samples.
            latencies, violated = window_stats(w0, env.now)
            finished = []
            for entry in pending:
                entry[1].append(latencies)
                entry[2].append(violated)
                if len(entry[1]) >= LOOKAHEAD_WINDOWS:
                    finished.append(entry)
            for entry in finished:
                pending.remove(entry)
                features_t, later_latencies, later_violations = entry
                violation = int(any(later_violations))
                dataset.samples.append(
                    TrainingSample(
                        features=features_t,
                        next_latency=later_latencies[0],
                        violation=violation,
                    )
                )
                violations_so_far += violation
                records += 1
                if records >= n_samples:
                    break
        dataset.collection_time_s = env.now - t_start
        return dataset
