"""Loss functions.

A loss exposes ``forward(logits, targets) -> float`` and
``backward() -> grad_logits`` (the mean-reduced gradient, ready to feed
into the network's backward pass).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["Loss", "SoftmaxCrossEntropy", "MeanSquaredError", "softmax"]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class Loss:
    """Base class for losses."""

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        raise NotImplementedError

    def backward(self) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, prediction: np.ndarray, target: np.ndarray) -> float:
        return self.forward(prediction, target)


class SoftmaxCrossEntropy(Loss):
    """Softmax + cross-entropy over integer class labels."""

    def __init__(self):
        self._probs: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        labels = np.asarray(target)
        if labels.ndim != 1:
            raise ConfigurationError(
                f"SoftmaxCrossEntropy expects integer labels of shape (N,), got {labels.shape}"
            )
        if labels.shape[0] != prediction.shape[0]:
            raise ConfigurationError(
                f"batch mismatch: {prediction.shape[0]} logits vs {labels.shape[0]} labels"
            )
        probs = softmax(prediction)
        self._probs = probs
        self._labels = labels
        picked = probs[np.arange(labels.shape[0]), labels]
        return float(-np.log(np.clip(picked, 1e-12, None)).mean())

    def backward(self) -> np.ndarray:
        assert self._probs is not None and self._labels is not None
        n = self._labels.shape[0]
        grad = self._probs.copy()
        grad[np.arange(n), self._labels] -= 1.0
        return grad / n


class MeanSquaredError(Loss):
    """Mean squared error over arbitrary-shape targets."""

    def __init__(self):
        self._diff: np.ndarray | None = None

    def forward(self, prediction: np.ndarray, target: np.ndarray) -> float:
        target = np.asarray(target, dtype=prediction.dtype)
        if target.shape != prediction.shape:
            raise ConfigurationError(
                f"shape mismatch: prediction {prediction.shape} vs target {target.shape}"
            )
        self._diff = prediction - target
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        assert self._diff is not None
        return 2.0 * self._diff / self._diff.size
