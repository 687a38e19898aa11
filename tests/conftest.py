"""Trained baseline models, built once per session.

Training is the slow part of the baseline tests, and several modules
deploy the same models.  Tests that run a model online (Firm keeps
learning while it deploys) must deep-copy it first, so that no test's
result depends on which test ran before it.
"""

import pytest

from repro.baselines.firm import train_firm_agents
from repro.baselines.sinan import SinanDataCollector, SinanPredictor
from repro.sim import RandomStreams
from repro.workload import RequestMix
from tests.baselines.tiny import FIRM_SLA_S, SINAN_SLA_S, tiny_spec


@pytest.fixture(scope="session")
def sinan_dataset():
    collector = SinanDataCollector(
        RandomStreams(31), window_s=10.0, settle_s=5.0
    )
    return collector.collect(tiny_spec(SINAN_SLA_S), RequestMix({"req": 1.0}),
                             rps=80.0, n_samples=60)


@pytest.fixture(scope="session")
def sinan_predictor(sinan_dataset):
    return SinanPredictor.train(sinan_dataset, epochs=25)


@pytest.fixture(scope="session")
def firm_trained():
    return train_firm_agents(
        tiny_spec(FIRM_SLA_S), RequestMix({"req": 1.0}), rps=60.0,
        streams=RandomStreams(51), n_samples=40, window_s=15.0,
    )
