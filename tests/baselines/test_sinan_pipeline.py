"""Integration tests for Sinan's data collection, training and scheduler."""

import hashlib

import numpy as np
import pytest

from repro.apps.topology import Application
from repro.baselines.sinan import (
    SinanDataCollector,
    SinanManager,
    SinanPredictor,
)
from repro.cluster import ClusterOptions
from repro.errors import ConfigurationError, ExplorationError
from repro.sim import RandomStreams
from repro.workload import ConstantLoad, LoadGenerator, RequestMix
from tests.baselines import tiny


def tiny_spec():
    return tiny.tiny_spec(tiny.SINAN_SLA_S)


def test_collection_is_balanced(sinan_dataset):
    assert sinan_dataset.size == 60
    # The 1:1 balancing keeps the ratio in a broad band around 0.5.
    _, _, violations = sinan_dataset.arrays()
    assert 0.15 <= violations.mean() <= 0.85
    assert sinan_dataset.collection_time_s > 0


def test_feature_schema_round_trip(sinan_dataset):
    schema = sinan_dataset.schema
    x, y, v = sinan_dataset.arrays()
    assert x.shape == (60, schema.dim)
    assert y.shape[1] == 1  # one request class
    assert set(v) <= {0, 1}
    replicas = schema.replicas_of(x[0])
    assert set(replicas) == {"front", "work"}
    # Pinned: the collection run reproduces the dataset bit for bit.
    digest = hashlib.sha256()
    for array in (x, y, v):
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == (
        "8a3ab82f9ce39903ba10a89de01ee37e97abf54e03686f0b7a0750f39ca1b4f3"
    )
    assert sinan_dataset.collection_time_s == 915.0


def test_training_produces_usable_models(sinan_predictor, sinan_dataset):
    x, y, v = sinan_dataset.arrays()
    pred = sinan_predictor.predict_latency(x[:10])
    assert pred.shape == (10, 1)
    assert (pred >= 0).all()
    proba = sinan_predictor.predict_violation_proba(x[:10])
    assert ((proba >= 0) & (proba <= 1)).all()
    # Better than coin-flipping on its own training distribution.
    assert sinan_predictor.violation_accuracy >= 0.4


def test_scheduler_decides_and_scales(sinan_predictor):
    app = Application(
        tiny_spec(), 33, initial_replicas=2,
        cluster_options=ClusterOptions(nodes=1, node_cpus=64, node_memory_gb=128),
    )
    env = app.env
    manager = SinanManager(app, sinan_predictor)
    manager.initialize()
    manager.start()
    LoadGenerator(app, ConstantLoad(60.0), RequestMix({"req": 1.0}),
                  RandomStreams(34), stop_at_s=300).start()
    env.run(until=300)
    assert manager.decisions > 0
    # The app keeps serving; the scheduler never drove replicas to zero.
    assert app.services["work"].deployment.desired_replicas >= 1


def test_manager_validation(sinan_predictor):
    # The predictor was trained on features of other request classes.
    app = Application(
        tiny.tiny_spec(tiny.SINAN_SLA_S, request="other"), 35, initial_replicas=1,
        cluster_options=ClusterOptions(nodes=1, node_cpus=64, node_memory_gb=128),
    )
    with pytest.raises(ConfigurationError, match="schema does not match"):
        SinanManager(app, sinan_predictor)


def test_collector_validation():
    collector = SinanDataCollector(RandomStreams(0))
    with pytest.raises(ExplorationError):
        collector.collect(tiny_spec(), RequestMix({"req": 1.0}), 10.0, n_samples=1)


def test_training_needs_samples(sinan_dataset):
    import dataclasses

    small = dataclasses.replace(sinan_dataset, samples=sinan_dataset.samples[:5])
    with pytest.raises(ConfigurationError):
        SinanPredictor.train(small)
