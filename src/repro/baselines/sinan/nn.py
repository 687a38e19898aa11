"""A small neural network in numpy (Sinan's latency predictor).

Sinan's short-term model is a CNN over resource/latency history; the
essential function is a learned mapping from (resource allocation, load,
recent latency) features to predicted end-to-end latency per request
class.  This module implements a multi-layer perceptron with ReLU hidden
layers trained by Adam on mean-squared error -- the same function class at
the fidelity the simulator warrants, with a deliberately generous
parameter count so that control-plane inference cost is representative
(Table VI).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["MlpRegressor"]


class MlpRegressor:
    """ReLU MLP trained with Adam on MSE.

    Features and targets are standardised internally; predictions are
    returned in the original target units.
    """

    def __init__(
        self,
        input_dim: int,
        output_dim: int,
        hidden: tuple[int, ...] = (256, 256, 128),
        seed: int = 0,
        learning_rate: float = 1e-3,
    ) -> None:
        if input_dim < 1 or output_dim < 1:
            raise ConfigurationError("input/output dims must be >= 1")
        if not hidden:
            raise ConfigurationError("need at least one hidden layer")
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.learning_rate = learning_rate
        rng = np.random.default_rng(seed)
        dims = [input_dim, *hidden, output_dim]
        self.weights = [
            rng.normal(0.0, np.sqrt(2.0 / dims[i]), size=(dims[i], dims[i + 1]))
            for i in range(len(dims) - 1)
        ]
        self.biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
        # Adam state.
        self._m = [np.zeros_like(w) for w in self.weights]
        self._v = [np.zeros_like(w) for w in self.weights]
        self._mb = [np.zeros_like(b) for b in self.biases]
        self._vb = [np.zeros_like(b) for b in self.biases]
        self._t = 0
        # Standardisation parameters (fitted).
        self._x_mean = np.zeros(input_dim)
        self._x_std = np.ones(input_dim)
        self._y_mean = np.zeros(output_dim)
        self._y_std = np.ones(output_dim)
        self._fitted = False

    # ------------------------------------------------------------------
    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        activations = [x]
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(0.0, h @ w + b)
            activations.append(h)
        out = h @ self.weights[-1] + self.biases[-1]
        return out, activations

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predict targets for ``features`` of shape (n, input_dim)."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        if features.shape[1] != self.input_dim:
            raise ConfigurationError(
                f"expected {self.input_dim} features, got {features.shape[1]}"
            )
        x = (features - self._x_mean) / self._x_std
        out, _ = self._forward(x)
        return out * self._y_std + self._y_mean

    # ------------------------------------------------------------------
    def fit(
        self,
        features: np.ndarray,
        targets: np.ndarray,
        epochs: int = 60,
        batch_size: int = 64,
        seed: int = 1,
        verbose: bool = False,
    ) -> list[float]:
        """Train; returns the per-epoch training losses."""
        features = np.atleast_2d(np.asarray(features, dtype=float))
        targets = np.asarray(targets, dtype=float)
        if targets.ndim == 1:
            targets = targets[:, None]
        if len(features) != len(targets):
            raise ConfigurationError("features/targets length mismatch")
        if len(features) < 2:
            raise ConfigurationError("need >= 2 training samples")
        self._x_mean = features.mean(axis=0)
        self._x_std = np.where(features.std(axis=0) > 1e-12, features.std(axis=0), 1.0)
        self._y_mean = targets.mean(axis=0)
        self._y_std = np.where(targets.std(axis=0) > 1e-12, targets.std(axis=0), 1.0)
        x_all = (features - self._x_mean) / self._x_std
        y_all = (targets - self._y_mean) / self._y_std
        rng = np.random.default_rng(seed)
        losses = []
        n = len(x_all)
        for _epoch in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                epoch_loss += self._step(x_all[idx], y_all[idx]) * len(idx)
            losses.append(epoch_loss / n)
        self._fitted = True
        return losses

    def _step(self, x: np.ndarray, y: np.ndarray) -> float:
        out, activations = self._forward(x)
        n = len(x)
        error = out - y
        loss = float(np.mean(error**2))
        # Backprop.
        grad = 2.0 * error / (n * y.shape[1])
        grads_w = []
        grads_b = []
        delta = grad
        for layer in range(len(self.weights) - 1, -1, -1):
            a_prev = activations[layer]
            grads_w.append(a_prev.T @ delta)
            grads_b.append(delta.sum(axis=0))
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (activations[layer] > 0)
        grads_w.reverse()
        grads_b.reverse()
        # Adam update.
        self._t += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        lr = self.learning_rate
        for i in range(len(self.weights)):
            self._m[i] = beta1 * self._m[i] + (1 - beta1) * grads_w[i]
            self._v[i] = beta2 * self._v[i] + (1 - beta2) * grads_w[i] ** 2
            m_hat = self._m[i] / (1 - beta1**self._t)
            v_hat = self._v[i] / (1 - beta2**self._t)
            self.weights[i] -= lr * m_hat / (np.sqrt(v_hat) + eps)
            self._mb[i] = beta1 * self._mb[i] + (1 - beta1) * grads_b[i]
            self._vb[i] = beta2 * self._vb[i] + (1 - beta2) * grads_b[i] ** 2
            mb_hat = self._mb[i] / (1 - beta1**self._t)
            vb_hat = self._vb[i] / (1 - beta2**self._t)
            self.biases[i] -= lr * mb_hat / (np.sqrt(vb_hat) + eps)
        return loss
