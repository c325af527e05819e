"""Evaluation metrics.

The inference service's notion of "accuracy" (Section 5) covers a range
of measurements — top-1 accuracy, precision/recall/F1, AUC — so these
are provided as plain functions over NumPy arrays.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "accuracy",
    "top_k_accuracy",
    "confusion_matrix",
    "precision_recall",
    "f1_score",
    "auc_score",
]


def _check_lengths(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise ConfigurationError(f"length mismatch: {a.shape[0]} vs {b.shape[0]}")
    if a.shape[0] == 0:
        raise ConfigurationError("metrics require at least one example")


def accuracy(predicted: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact label matches."""
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    _check_lengths(predicted, labels)
    return float(np.mean(predicted == labels))


def top_k_accuracy(scores: np.ndarray, labels: np.ndarray, k: int = 5) -> float:
    """Fraction of examples whose true label is in the top-k scores."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    _check_lengths(scores, labels)
    if k < 1 or k > scores.shape[1]:
        raise ConfigurationError(f"k must be in [1, {scores.shape[1]}], got {k}")
    topk = np.argpartition(-scores, kth=k - 1, axis=1)[:, :k]
    return float(np.mean([labels[i] in topk[i] for i in range(labels.shape[0])]))


def confusion_matrix(predicted: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """``matrix[i, j]`` counts examples of true class i predicted as j."""
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    _check_lengths(predicted, labels)
    matrix = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(matrix, (labels, predicted), 1)
    return matrix


def precision_recall(
    predicted: np.ndarray, labels: np.ndarray, positive: int = 1
) -> tuple[float, float]:
    """Binary precision and recall for the ``positive`` class."""
    predicted = np.asarray(predicted)
    labels = np.asarray(labels)
    _check_lengths(predicted, labels)
    tp = int(np.sum((predicted == positive) & (labels == positive)))
    fp = int(np.sum((predicted == positive) & (labels != positive)))
    fn = int(np.sum((predicted != positive) & (labels == positive)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return precision, recall


def f1_score(predicted: np.ndarray, labels: np.ndarray, positive: int = 1) -> float:
    """Binary F1 for the ``positive`` class."""
    precision, recall = precision_recall(predicted, labels, positive)
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with each tie group at the mean of its positions.

    The same values as ``scipy.stats.rankdata(values)`` (its default
    ``"average"`` method): a group spanning positions ``lo+1 .. hi`` gets
    ``(lo + 1 + hi) / 2``, an exact half, and any NaN makes every rank NaN.
    """
    if np.isnan(values).any():
        return np.full(values.shape, np.nan)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks


def auc_score(scores: np.ndarray, labels: np.ndarray) -> float:
    """Area under the ROC curve via the rank-sum (Mann-Whitney) identity."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    _check_lengths(scores, labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    if pos.size == 0 or neg.size == 0:
        raise ConfigurationError("AUC requires both positive and negative examples")
    ranks = _average_ranks(np.concatenate([pos, neg]))
    rank_sum_pos = ranks[: pos.size].sum()
    auc = (rank_sum_pos - pos.size * (pos.size + 1) / 2.0) / (pos.size * neg.size)
    return float(auc)
