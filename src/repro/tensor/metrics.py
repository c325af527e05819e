"""Binary precision, recall and F1 over NumPy label arrays.

Top-1 accuracy is :func:`repro.tensor.evaluate`; these score a binary
task such as the sentiment example's.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["precision_recall", "f1_score"]


def _check_lengths(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise ConfigurationError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] == 0:
        raise ConfigurationError("metrics require at least one example")


def precision_recall(predicted: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Binary precision and recall for the positive class, label 1."""
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    _check_lengths(predicted, labels)
    tp = int(np.sum((predicted == 1) & (labels == 1)))
    fp = int(np.sum((predicted == 1) & (labels != 1)))
    fn = int(np.sum((predicted != 1) & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


def f1_score(predicted: np.ndarray, labels: np.ndarray) -> float:
    """Binary F1 for the positive class, label 1."""
    precision, recall = precision_recall(predicted, labels)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)

