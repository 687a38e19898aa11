"""Sinan's centralised scheduler (§VII-B).

Every control interval the scheduler assembles the current feature vector,
generates a batch of candidate allocations around the current one, runs
the *full model pair* over the batch (the CNN-equivalent latency model and
the boosted-trees violation model are on the critical path of every
decision -- the Table VI cost), and applies the cheapest candidate the
models consider safe.  When no candidate is safe it scales up the
bottleneck services.
"""

from __future__ import annotations

import numpy as np

from repro.apps.topology import Application
from repro.baselines.sinan.predictor import SinanPredictor
from repro.core.control_loop import ControlLoop
from repro.errors import ConfigurationError

__all__ = ["SinanManager"]

#: Seconds between two decisions.
CONTROL_INTERVAL_S = 30.0
#: Candidate allocations scored per decision (one model batch).
CANDIDATES = 256
#: A candidate is safe when every predicted latency is under this share
#: of its SLA target ...
SAFETY_MARGIN = 0.9
#: ... and its predicted violation probability is under this.
VIOLATION_THRESHOLD = 0.5
#: Replica bounds per service in a candidate.
MAX_REPLICAS = 64
#: Seed of the random-neighbour candidate generator.
CANDIDATE_SEED = 0
#: Replicas per service before the first decision.
INITIAL_REPLICAS = 2


class SinanManager(ControlLoop):
    """Deploy-time manager driving an app with Sinan's models."""

    interval_s = CONTROL_INTERVAL_S

    def __init__(self, app: Application, predictor: SinanPredictor) -> None:
        super().__init__(app)
        self.predictor = predictor
        self._rng = np.random.default_rng(CANDIDATE_SEED)
        self.decisions = 0
        schema = predictor.schema
        self._cpus = {
            s.name: s.cpus_per_replica for s in app.spec.services
        }
        self._sla_targets = np.asarray(
            [rc.sla.target_s for rc in app.spec.request_classes]
        )
        if schema.classes != [rc.name for rc in app.spec.request_classes]:
            raise ConfigurationError("predictor schema does not match app")

    # ------------------------------------------------------------------
    def initialize(self) -> None:
        """Apply the starting allocation."""
        for name in self.app.services:
            self.app.scale(name, INITIAL_REPLICAS)

    # ------------------------------------------------------------------
    def _candidate_matrix(self, base: np.ndarray) -> np.ndarray:
        """Batch of candidate feature vectors around the current state."""
        schema = self.predictor.schema
        current = schema.replicas_of(base)
        rows = [base]
        # Structured neighbours: +-1 on each service, +-1 globally.
        for name in schema.services:
            for delta in (-1, 1):
                candidate = dict(current)
                candidate[name] = int(
                    np.clip(candidate[name] + delta, 1, MAX_REPLICAS)
                )
                rows.append(schema.with_replicas(base, candidate))
        for delta in (-1, 1):
            candidate = {
                name: int(np.clip(count + delta, 1, MAX_REPLICAS))
                for name, count in current.items()
            }
            rows.append(schema.with_replicas(base, candidate))
        # Random neighbours fill the batch.
        while len(rows) < CANDIDATES:
            candidate = {
                name: int(
                    np.clip(count + self._rng.integers(-2, 3), 1, MAX_REPLICAS)
                )
                for name, count in current.items()
            }
            rows.append(schema.with_replicas(base, candidate))
        return np.vstack(rows)

    def _allocation_cost(self, vector: np.ndarray) -> float:
        replicas = self.predictor.schema.replicas_of(vector)
        return sum(self._cpus[name] * count for name, count in replicas.items())

    def decide(self) -> dict[str, int]:
        """One full decision: candidate generation + batch inference."""
        hub = self.app.hub
        now = self.app.env.now
        t0 = max(0.0, now - hub.window_s)
        base = self.predictor.schema.observe(self.app, t0, now)
        batch = self._candidate_matrix(base)
        latencies = self.predictor.predict_latency(batch)
        violation_p = self.predictor.predict_violation_proba(batch)
        safe = (
            (latencies <= self._sla_targets * SAFETY_MARGIN).all(axis=1)
            & (violation_p < VIOLATION_THRESHOLD)
        )
        if safe.any():
            costs = np.asarray(
                [self._allocation_cost(row) for row in batch]
            )
            costs = np.where(safe, costs, np.inf)
            chosen = batch[int(np.argmin(costs))]
        else:
            # No safe candidate: pick the one with the lowest predicted
            # SLA pressure (scale-up fallback).
            pressure = (latencies / self._sla_targets).max(axis=1)
            chosen = batch[int(np.argmin(pressure))]
        return self.predictor.schema.replicas_of(chosen)

    def step(self) -> None:
        target = self.decide()
        for name, count in target.items():
            if self.app.services[name].deployment.desired_replicas != count:
                self.app.scale(name, count)
        self.decisions += 1
