"""Tests for metrics and losses."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.tensor import MeanSquaredError, SoftmaxCrossEntropy, f1_score
from repro.tensor.losses import softmax
from repro.tensor.metrics import precision_recall


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = softmax(rng.normal(size=(4, 7)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0)

    def test_stable_for_large_logits(self):
        out = softmax(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] == pytest.approx(1.0)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8))
    def test_shift_invariance(self, logits):
        arr = np.array([logits])
        np.testing.assert_allclose(softmax(arr), softmax(arr + 17.0), atol=1e-12)


class TestSoftmaxCrossEntropy:
    def test_perfect_prediction_near_zero_loss(self):
        loss = SoftmaxCrossEntropy()
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert loss.forward(logits, np.array([0, 1])) < 1e-6

    def test_uniform_prediction_log_k(self):
        loss = SoftmaxCrossEntropy()
        value = loss.forward(np.zeros((3, 10)), np.zeros(3, dtype=int))
        assert value == pytest.approx(np.log(10))

    def test_gradient_matches_numeric(self, rng):
        loss = SoftmaxCrossEntropy()
        logits = rng.normal(size=(4, 5))
        labels = rng.integers(0, 5, size=4)
        loss.forward(logits, labels)
        grad = loss.backward()
        eps = 1e-6
        for i, j in [(0, 0), (2, 3), (3, 4)]:
            shifted = logits.copy()
            shifted[i, j] += eps
            plus = loss.forward(shifted, labels)
            shifted[i, j] -= 2 * eps
            minus = loss.forward(shifted, labels)
            assert grad[i, j] == pytest.approx((plus - minus) / (2 * eps), abs=1e-6)

    def test_rejects_onehot_targets(self):
        with pytest.raises(ConfigurationError):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rejects_batch_mismatch(self):
        with pytest.raises(ConfigurationError):
            SoftmaxCrossEntropy().forward(np.zeros((2, 3)), np.zeros(3, dtype=int))


class TestMSE:
    def test_zero_for_exact(self):
        loss = MeanSquaredError()
        x = np.ones((2, 3))
        assert loss.forward(x, x) == 0.0

    def test_value(self):
        loss = MeanSquaredError()
        assert loss.forward(np.array([[2.0]]), np.array([[0.0]])) == pytest.approx(4.0)

    def test_gradient(self):
        loss = MeanSquaredError()
        pred = np.array([[3.0, 1.0]])
        loss.forward(pred, np.array([[1.0, 1.0]]))
        np.testing.assert_allclose(loss.backward(), [[2.0, 0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            MeanSquaredError().forward(np.zeros((2, 2)), np.zeros((2, 3)))


class TestAccuracyMetrics:
    def test_precision_recall(self):
        predicted = np.array([1, 1, 0, 0])
        labels = np.array([1, 0, 1, 0])
        precision, recall = precision_recall(predicted, labels)
        assert precision == pytest.approx(0.5)
        assert recall == pytest.approx(0.5)

    def test_f1_degenerate(self):
        assert f1_score(np.array([0, 0]), np.array([0, 0])) == 0.0
