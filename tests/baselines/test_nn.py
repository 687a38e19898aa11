"""Tests for the numpy MLP regressor."""

import numpy as np
import pytest

from repro.baselines.sinan.nn import MlpRegressor
from repro.errors import ConfigurationError


def test_learns_linear_function():
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, size=(600, 4))
    y = x @ np.array([1.0, -2.0, 0.5, 3.0]) + 1.0
    model = MlpRegressor(4, 1, hidden=(32, 32), seed=0)
    losses = model.fit(x, y, epochs=80, batch_size=64)
    assert losses[-1] < losses[0] / 10
    pred = model.predict(x[:50]).ravel()
    rmse = np.sqrt(np.mean((pred - y[:50]) ** 2))
    assert rmse < 0.3


def test_learns_nonlinear_function():
    rng = np.random.default_rng(1)
    x = rng.uniform(-2, 2, size=(800, 2))
    y = np.sin(x[:, 0]) + x[:, 1] ** 2
    model = MlpRegressor(2, 1, hidden=(64, 64), seed=1)
    model.fit(x, y, epochs=150, batch_size=64)
    pred = model.predict(x).ravel()
    rmse = np.sqrt(np.mean((pred - y) ** 2))
    assert rmse < 0.35


def test_multi_output():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(400, 3))
    y = np.stack([x[:, 0] + x[:, 1], x[:, 2] * 2], axis=1)
    model = MlpRegressor(3, 2, hidden=(32,), seed=2)
    model.fit(x, y, epochs=100)
    pred = model.predict(x)
    assert pred.shape == (400, 2)
    assert np.mean((pred - y) ** 2) < 0.2


def test_input_validation():
    with pytest.raises(ConfigurationError):
        MlpRegressor(0, 1)
    with pytest.raises(ConfigurationError):
        MlpRegressor(1, 1, hidden=())
    model = MlpRegressor(2, 1)
    with pytest.raises(ConfigurationError):
        model.fit(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ConfigurationError):
        model.fit(np.zeros((1, 2)), np.zeros(1))
    with pytest.raises(ConfigurationError):
        model.predict(np.zeros((2, 3)))


def test_parameter_count_is_representative():
    """Sinan's model should be big enough that inference cost shows up."""
    model = MlpRegressor(20, 5)
    parameters = sum(w.size for w in model.weights) + sum(b.size for b in model.biases)
    assert parameters > 50_000
