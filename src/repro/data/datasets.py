"""Procedurally generated datasets.

CIFAR-10 / ImageNet cannot be downloaded in this environment, so the
tuning and serving experiments run over synthetic datasets with a
controllable signal-to-noise ratio:

* each class gets a *template* — a smooth random texture (low-pass
  filtered Gaussian noise) — and examples are noisy, randomly shifted
  renderings of their class template;
* a ``difficulty`` knob scales the noise, controlling the accuracy a
  given model capacity can reach, which is what the tuning experiments
  need (a response surface with headroom).

A small synthetic sentiment dataset (bag-of-token-count vectors over a
signed vocabulary) is also provided because sentiment analysis is one of
the built-in tasks in the paper's Figure 2 table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import derive_rng

__all__ = ["ImageDataset", "make_image_classification", "make_sentiment_dataset"]


@dataclass
class ImageDataset:
    """An in-memory split image-classification dataset (NCHW float64)."""

    name: str
    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray
    val_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    num_classes: int

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.train_x.shape[1:])  # type: ignore[return-value]

    def splits(self) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        return {
            "train": (self.train_x, self.train_y),
            "val": (self.val_x, self.val_y),
            "test": (self.test_x, self.test_y),
        }

    def __len__(self) -> int:
        return self.train_x.shape[0] + self.val_x.shape[0] + self.test_x.shape[0]


def _smooth(noise: np.ndarray) -> np.ndarray:
    """Cheap low-pass filter: three passes of 4-neighbour averaging."""
    out = noise
    for _ in range(3):
        out = (
            out
            + np.roll(out, 1, axis=-1)
            + np.roll(out, -1, axis=-1)
            + np.roll(out, 1, axis=-2)
            + np.roll(out, -1, axis=-2)
        ) / 5.0
    return out


def _render_examples(
    templates: np.ndarray,
    labels: np.ndarray,
    noise_std: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Render noisy copies of each label's template, each rolled by up
    to two pixels along both image axes."""
    count = labels.shape[0]
    _, channels, height, width = templates.shape
    images = templates[labels].copy()
    shifts = rng.integers(-2, 3, size=(count, 2))
    for i in range(count):
        images[i] = np.roll(images[i], tuple(shifts[i]), axis=(1, 2))
    images += rng.normal(0.0, noise_std, size=(count, channels, height, width))
    return images


def make_image_classification(
    name: str = "synthetic-cifar",
    num_classes: int = 10,
    image_shape: tuple[int, int, int] = (3, 32, 32),
    train_per_class: int = 64,
    val_per_class: int = 16,
    test_per_class: int = 16,
    difficulty: float = 0.5,
    seed: int = 0,
) -> ImageDataset:
    """Generate a class-conditional textured image dataset.

    ``difficulty`` in [0, 2] scales the additive noise relative to the
    template contrast; 0.5 gives a dataset a small ConvNet can push past
    90% accuracy, matching the CIFAR-10 regime of Section 7.1.
    """
    if num_classes < 2:
        raise ConfigurationError(f"num_classes must be >= 2, got {num_classes}")
    if difficulty < 0:
        raise ConfigurationError(f"difficulty must be >= 0, got {difficulty}")
    channels, height, width = image_shape
    rng = derive_rng(seed, f"dataset:{name}")
    templates = _smooth(rng.normal(0.0, 1.0, size=(num_classes, channels, height, width)))
    # Normalise template contrast so 'difficulty' has a consistent meaning.
    templates /= templates.std() + 1e-12
    noise_std = float(difficulty)

    def _split(per_class: int, tag: str) -> tuple[np.ndarray, np.ndarray]:
        split_rng = derive_rng(seed, f"dataset:{name}:{tag}")
        labels = np.repeat(np.arange(num_classes), per_class)
        split_rng.shuffle(labels)
        images = _render_examples(templates, labels, noise_std, split_rng)
        return images, labels

    train_x, train_y = _split(train_per_class, "train")
    val_x, val_y = _split(val_per_class, "val")
    test_x, test_y = _split(test_per_class, "test")
    return ImageDataset(
        name=name,
        train_x=train_x,
        train_y=train_y,
        val_x=val_x,
        val_y=val_y,
        test_x=test_x,
        test_y=test_y,
        num_classes=num_classes,
    )


#: tokens in every generated sentiment document.
_DOC_LENGTH = 30


def make_sentiment_dataset(
    vocab_size: int = 200,
    train_count: int = 400,
    test_count: int = 100,
    signal: float = 1.0,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Generate a binary sentiment task as token-count vectors.

    Half the vocabulary carries positive polarity and half negative;
    30-token documents sample tokens biased toward their label's polarity.
    Returns ``(train_x, train_y, test_x, test_y)``.
    """
    if vocab_size < 4:
        raise ConfigurationError(f"vocab_size must be >= 4, got {vocab_size}")
    rng = derive_rng(seed, "dataset:synthetic-sentiment")
    polarity = np.concatenate(
        [np.ones(vocab_size // 2), -np.ones(vocab_size - vocab_size // 2)]
    )

    def _sample(count: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, 2, size=count)
        logits = polarity[None, :] * (2 * labels[:, None] - 1) * signal
        probs = np.exp(logits)
        probs /= probs.sum(axis=1, keepdims=True)
        counts = np.vstack([rng.multinomial(_DOC_LENGTH, p) for p in probs]).astype(np.float64)
        return counts, labels

    train_x, train_y = _sample(train_count)
    test_x, test_y = _sample(test_count)
    return train_x, train_y, test_x, test_y
