"""Mini-batch training and evaluation loops.

These are the primitives the tuning workers use when running *real*
(as opposed to surrogate) trials: one epoch of shuffled mini-batch SGD,
and evaluation of accuracy/loss over a dataset.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.losses import Loss
from repro.tensor.network import Network
from repro.tensor.optimizers import Optimizer

__all__ = ["train_epoch", "evaluate"]


def train_epoch(
    network: Network,
    loss: Loss,
    optimizer: Optimizer,
    inputs: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
    augment=None,
) -> float:
    """Run one epoch of shuffled mini-batch SGD; return the mean loss.

    ``augment``, if given, is applied to each input batch before the
    forward pass (the group-1 preprocessing knobs of Table 1).
    """
    n = inputs.shape[0]
    order = rng.permutation(n)
    total, batches = 0.0, 0
    for start in range(0, n, batch_size):
        idx = order[start : start + batch_size]
        batch_x = inputs[idx]
        batch_y = labels[idx]
        if augment is not None:
            batch_x = augment(batch_x, rng)
        network.zero_grads()
        logits = network.forward(batch_x, training=True)
        batch_loss = loss.forward(logits, batch_y)
        network.backward(loss.backward())
        optimizer.step(network.params, network.grads)
        total += batch_loss
        batches += 1
    return total / max(batches, 1)


def evaluate(
    network: Network,
    inputs: np.ndarray,
    labels: np.ndarray,
) -> float:
    """Top-1 accuracy of ``network`` over a dataset, 256 images at a time."""
    correct = 0
    n = inputs.shape[0]
    for start in range(0, n, 256):
        batch_x = inputs[start : start + 256]
        batch_y = labels[start : start + 256]
        predicted = network.predict_labels(batch_x)
        correct += int(np.sum(predicted == batch_y))
    return correct / n
