"""Tests for the object-detection task (Figure 2's second built-in task)."""

import numpy as np
import pytest

from repro.data import iou, make_object_detection, mean_iou
from repro.exceptions import ConfigurationError
from repro.tensor import Adam, MeanSquaredError, Network, Sigmoid
from repro.zoo.builders import build_mlp


class TestIoU:
    def test_identical_boxes(self):
        box = np.array([0.5, 0.5, 0.4, 0.4])
        assert iou(box, box) == pytest.approx(1.0)

    def test_disjoint_boxes(self):
        a = np.array([0.2, 0.2, 0.2, 0.2])
        b = np.array([0.8, 0.8, 0.2, 0.2])
        assert iou(a, b) == 0.0

    def test_half_overlap(self):
        a = np.array([0.25, 0.5, 0.5, 1.0])   # left half
        b = np.array([0.5, 0.5, 1.0, 1.0])    # whole image
        assert iou(a, b) == pytest.approx(0.5)

    def test_mean_iou_shape_check(self):
        with pytest.raises(ConfigurationError):
            mean_iou(np.zeros((3, 4)), np.zeros((2, 4)))


class TestDataset:
    def test_shapes_and_ranges(self):
        ds = make_object_detection(train_count=20, val_count=5)
        assert ds.train_x.shape == (20, 1, 16, 16)
        assert ds.train_boxes.shape == (20, 4)
        assert np.all(ds.train_boxes >= 0) and np.all(ds.train_boxes <= 1)

    def test_deterministic(self):
        a = make_object_detection(train_count=5, seed=3)
        b = make_object_detection(train_count=5, seed=3)
        np.testing.assert_array_equal(a.train_x, b.train_x)

    def test_blob_is_inside_box(self):
        ds = make_object_detection(train_count=10, noise=0.0, seed=1)
        for image, box in zip(ds.train_x, ds.train_boxes):
            cy = int(box[1] * 16)
            cx = int(box[0] * 16)
            # centre of the box is bright (the blob adds +2)
            assert image[0, min(cy, 15), min(cx, 15)] > 1.0


class TestTrainability:
    def test_regression_head_localises(self, rng):
        """A small network learns to localise the blob (mean IoU >> random)."""
        ds = make_object_detection(train_count=150, val_count=40, noise=0.2, seed=2)
        net = build_mlp(ds.image_shape, 4, rng, hidden=(64,), name="det")
        net.layers.append(Sigmoid(name="det/sigmoid"))  # boxes live in [0, 1]
        loss = MeanSquaredError()
        optimizer = Adam(lr=3e-3)
        for _ in range(120):
            net.zero_grads()
            predictions = net.forward(ds.train_x, training=True)
            loss.forward(predictions, ds.train_boxes)
            net.backward(loss.backward())
            optimizer.step(net.params, net.grads)
        predicted = net.forward(ds.val_x)
        score = mean_iou(predicted, ds.val_boxes)
        # random boxes score ~0.1; a localising model clears 0.4 easily
        assert score > 0.4
