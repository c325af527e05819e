"""Synthetic single-object detection data (Figure 2's ObjectDetection task).

Each image contains one bright rectangular blob on textured noise; the
label is its bounding box ``(cx, cy, w, h)`` normalised to [0, 1]. The
Figure 2 API notes that for detection the output shape "could be ...
bounding-box shape" — these datasets exercise that path: a regression
head with 4 outputs trained with MSE, evaluated by IoU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import derive_rng

__all__ = ["DetectionDataset", "make_object_detection", "iou", "mean_iou"]


@dataclass
class DetectionDataset:
    """Images (NCHW) with one normalised box ``(cx, cy, w, h)`` each."""

    name: str
    train_x: np.ndarray
    train_boxes: np.ndarray
    val_x: np.ndarray
    val_boxes: np.ndarray

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return tuple(self.train_x.shape[1:])  # type: ignore[return-value]


def _render_split(count: int, image_shape, noise: float, rng) -> tuple[np.ndarray, np.ndarray]:
    channels, height, width = image_shape
    images = rng.normal(0.0, noise, size=(count, channels, height, width))
    boxes = np.empty((count, 4))
    for i in range(count):
        bw = rng.integers(max(height // 4, 2), max(height // 2, 3))
        bh = rng.integers(max(height // 4, 2), max(height // 2, 3))
        x0 = rng.integers(0, width - bw + 1)
        y0 = rng.integers(0, height - bh + 1)
        images[i, :, y0 : y0 + bh, x0 : x0 + bw] += 2.0
        boxes[i] = [
            (x0 + bw / 2.0) / width,
            (y0 + bh / 2.0) / height,
            bw / width,
            bh / height,
        ]
    return images, boxes


def make_object_detection(
    train_count: int = 200,
    val_count: int = 50,
    noise: float = 0.3,
    seed: int = 0,
) -> DetectionDataset:
    """Generate a single-object localisation dataset of 1x16x16 images."""
    if noise < 0:
        raise ConfigurationError(f"noise must be >= 0, got {noise}")
    image_shape = (1, 16, 16)
    name = "synthetic-boxes"
    train_rng = derive_rng(seed, f"detection:{name}:train")
    val_rng = derive_rng(seed, f"detection:{name}:val")
    train_x, train_boxes = _render_split(train_count, image_shape, noise, train_rng)
    val_x, val_boxes = _render_split(val_count, image_shape, noise, val_rng)
    return DetectionDataset(name, train_x, train_boxes, val_x, val_boxes)


def iou(box_a: np.ndarray, box_b: np.ndarray) -> float:
    """Intersection-over-union of two ``(cx, cy, w, h)`` boxes."""
    ax0, ay0 = box_a[0] - box_a[2] / 2, box_a[1] - box_a[3] / 2
    ax1, ay1 = box_a[0] + box_a[2] / 2, box_a[1] + box_a[3] / 2
    bx0, by0 = box_b[0] - box_b[2] / 2, box_b[1] - box_b[3] / 2
    bx1, by1 = box_b[0] + box_b[2] / 2, box_b[1] + box_b[3] / 2
    inter_w = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    inter_h = max(0.0, min(ay1, by1) - max(ay0, by0))
    intersection = inter_w * inter_h
    union = box_a[2] * box_a[3] + box_b[2] * box_b[3] - intersection
    if union <= 0:
        return 0.0
    return float(intersection / union)


def mean_iou(predicted: np.ndarray, target: np.ndarray) -> float:
    """Mean IoU over batches of boxes."""
    predicted = np.asarray(predicted)
    target = np.asarray(target)
    if predicted.shape != target.shape or predicted.ndim != 2 or predicted.shape[1] != 4:
        raise ConfigurationError(
            f"expected matching (N, 4) box arrays, got {predicted.shape} / {target.shape}"
        )
    return float(np.mean([iou(p, t) for p, t in zip(predicted, target)]))
