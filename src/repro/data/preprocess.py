"""Preprocessing and augmentation operators (Table 1, group 1).

Each operator is a callable ``op(batch, rng) -> batch`` over NCHW
arrays; :class:`Compose` chains them. :class:`Standardize` is fitted on
the training split first, matching the paper's "subtract the mean and
divide the standard deviation ... computed on the training images".
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "Compose",
    "Standardize",
    "PadCrop",
    "RandomFlip",
    "standard_cifar_pipeline",
]


class Compose:
    """Apply operators in sequence."""

    def __init__(self, ops):
        self.ops = list(ops)

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        for op in self.ops:
            batch = op(batch, rng)
        return batch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Compose({[type(op).__name__ for op in self.ops]})"


class Standardize:
    """Per-channel mean/std normalisation fitted on training data."""

    def __init__(self):
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    def fit(self, train_x: np.ndarray) -> "Standardize":
        self.mean = train_x.mean(axis=(0, 2, 3)).reshape(1, -1, 1, 1)
        self.std = train_x.std(axis=(0, 2, 3)).reshape(1, -1, 1, 1) + 1e-8
        return self

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.mean is None or self.std is None:
            raise ConfigurationError("Standardize must be fitted before use")
        return (batch - self.mean) / self.std


class PadCrop:
    """Zero-pad each side then take a random crop of the original size.

    The paper pads CIFAR images by 4 pixels to 40x40 and randomly crops
    a 32x32 patch. It augments training batches only: evaluation reads
    the images as they are.
    """

    def __init__(self, pad: int = 4):
        if pad < 0:
            raise ConfigurationError(f"pad must be >= 0, got {pad}")
        self.pad = int(pad)

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.pad == 0:
            return batch
        n, c, h, w = batch.shape
        padded = np.pad(
            batch, ((0, 0), (0, 0), (self.pad, self.pad), (self.pad, self.pad)), mode="constant"
        )
        out = np.empty_like(batch)
        tops = rng.integers(0, 2 * self.pad + 1, size=n)
        lefts = rng.integers(0, 2 * self.pad + 1, size=n)
        for i in range(n):
            out[i] = padded[i, :, tops[i] : tops[i] + h, lefts[i] : lefts[i] + w]
        return out


class RandomFlip:
    """Horizontal flip with probability ``p`` (0.5 in the paper)."""

    def __init__(self, p: float = 0.5):
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"p must be in [0, 1], got {p}")
        self.p = float(p)

    def __call__(self, batch: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if self.p == 0.0:
            return batch
        flips = rng.random(batch.shape[0]) < self.p
        out = batch.copy()
        out[flips] = out[flips, :, :, ::-1]
        return out


def standard_cifar_pipeline(train_x: np.ndarray, pad: int = 4) -> Compose:
    """The paper's standard CIFAR-10 preprocessing sequence.

    Per-channel standardisation (fitted on ``train_x``), ``pad``-pixel
    zero padding with random crop back to the original size, and a
    random horizontal flip with probability 0.5.
    """
    return Compose([Standardize().fit(train_x), PadCrop(pad=pad), RandomFlip(p=0.5)])
