"""Unit and property tests for random streams and distributions."""

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.random import Constant, LogNormal, Mixture, RandomStreams
from tests.distributions import Exponential


def test_same_seed_same_stream():
    a = RandomStreams(seed=7).stream("svc")
    b = RandomStreams(seed=7).stream("svc")
    assert a.random() == b.random()


def test_different_names_independent():
    streams = RandomStreams(seed=7)
    a = streams.stream("svc-a").random(10)
    b = streams.stream("svc-b").random(10)
    assert not np.allclose(a, b)


def test_stream_is_cached():
    streams = RandomStreams(seed=0)
    assert streams.stream("x") is streams.stream("x")


def test_fork_changes_streams():
    base = RandomStreams(seed=3)
    fork = base.fork(1)
    assert base.stream("s").random() != fork.stream("s").random()


@pytest.mark.parametrize(
    "dist",
    [
        Constant(2.0),
        Exponential(2.0),
        LogNormal(2.0, cv=0.5),
        # Bimodal: cache hits and misses.
        Mixture([(0.9, Exponential(1.0)), (0.1, Exponential(11.0))]),
        # Unnormalised weights.
        Mixture([(3.0, Constant(1.0)), (1.0, LogNormal(5.0))]),
        # A zero-weight component is never drawn.
        Mixture([(1.0, Exponential(2.0)), (0.0, Constant(100.0))]),
    ],
)
def test_distribution_mean_close(dist):
    rng = np.random.default_rng(0)
    samples = np.array([dist.sample(rng) for _ in range(20000)])
    assert samples.min() >= 0
    assert samples.mean() == pytest.approx(dist.mean, rel=0.15)


@pytest.mark.parametrize(
    "dist",
    [
        Constant(2.0),
        Exponential(2.0),
        LogNormal(2.0),
        Mixture([(0.9, Exponential(1.0)), (0.1, Exponential(11.0))]),
        Mixture([(3.0, Constant(1.0)), (1.0, LogNormal(5.0))]),
        Mixture([(1.0, Exponential(2.0)), (0.0, Constant(100.0))]),
    ],
)
def test_scaled_scales_mean(dist):
    assert dist.scaled(0.5).mean == pytest.approx(dist.mean * 0.5)


def test_lognormal_cv():
    dist = LogNormal(10.0, cv=1.0)
    rng = np.random.default_rng(1)
    samples = np.array([dist.sample(rng) for _ in range(50000)])
    cv = samples.std() / samples.mean()
    assert cv == pytest.approx(1.0, rel=0.1)


@pytest.mark.parametrize(
    "bad",
    [
        lambda: LogNormal(0.0),
        lambda: LogNormal(1.0, cv=-0.5),
        lambda: LogNormal(1.0, cv=0),
        lambda: LogNormal(-1.0),
        lambda: Mixture([]),
        lambda: Mixture([(-1.0, Constant(1.0)), (2.0, Constant(1.0))]),
        lambda: Mixture([(0.0, Constant(1.0))]),
        lambda: Constant(-0.1),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(ValueError):
        bad()


@given(mean=st.floats(0.01, 1e4), cv=st.floats(0.05, 3.0))
@settings(max_examples=50)
def test_lognormal_samples_positive(mean, cv):
    dist = LogNormal(mean, cv=cv)
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert dist.sample(rng) > 0


def test_lognormal_cached_params_draw_the_uncached_variates():
    dist = LogNormal(0.08, cv=0.8)
    sigma2 = math.log(1.0 + 0.8**2)
    mu, sigma = math.log(0.08) - sigma2 / 2.0, math.sqrt(sigma2)
    expected = np.random.default_rng(3).lognormal(mu, sigma, size=5)
    rng = np.random.default_rng(3)
    assert [dist.sample(rng) for _ in range(5)] == list(expected)
    # Pickled before or after the cache filled, it unpickles equal and
    # samples the same.
    for state in (pickle.dumps(LogNormal(0.08, cv=0.8)), pickle.dumps(dist)):
        loaded = pickle.loads(state)
        assert loaded == dist
        assert loaded.sample(np.random.default_rng(3)) == expected[0]


@pytest.mark.parametrize(
    "dist, numpy_draw",
    [
        (LogNormal(0.004, cv=0.6), lambda rng, d: rng.lognormal(*d._params)),
        (LogNormal(3.5, cv=1.7), lambda rng, d: rng.lognormal(*d._params)),
        (LogNormal(250.0, cv=0.05), lambda rng, d: rng.lognormal(*d._params)),
    ],
)
def test_samples_match_numpy_draw_for_draw(dist, numpy_draw):
    # The samplers use numpy's own definitions over the standard draws:
    # the same values, and the stream left in the same state, as numpy's
    # parameterised calls interleaved with other draws.
    ours, theirs = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(2000):
        assert dist.sample(ours) == numpy_draw(theirs, dist)
        assert ours.random() == theirs.random()


@given(seed=st.integers(0, 2**31), name=st.text(min_size=1, max_size=20))
@settings(max_examples=30)
def test_streams_reproducible_property(seed, name):
    a = RandomStreams(seed=seed).stream(name).random(5)
    b = RandomStreams(seed=seed).stream(name).random(5)
    assert np.array_equal(a, b)
