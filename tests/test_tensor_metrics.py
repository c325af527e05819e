"""Tests for metrics and losses."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import rankdata

from repro.exceptions import ConfigurationError
from repro.tensor import MeanSquaredError, SoftmaxCrossEntropy, accuracy, confusion_matrix, f1_score, top_k_accuracy
from repro.tensor.losses import softmax
from repro.tensor.metrics import _average_ranks, auc_score, precision_recall


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
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 0])) == pytest.approx(2 / 3)

    def test_accuracy_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            accuracy(np.array([]), np.array([]))

    def test_top_k(self):
        scores = np.array([[0.1, 0.5, 0.4], [0.8, 0.15, 0.05]])
        labels = np.array([2, 2])
        assert top_k_accuracy(scores, labels, k=1) == pytest.approx(0.0)
        assert top_k_accuracy(scores, labels, k=2) == pytest.approx(0.5)
        assert top_k_accuracy(scores, labels, k=3) == pytest.approx(1.0)

    def test_top_k_bad_k(self):
        with pytest.raises(ConfigurationError):
            top_k_accuracy(np.zeros((2, 3)), np.zeros(2, dtype=int), k=4)

    def test_confusion_matrix(self):
        predicted = np.array([0, 1, 1, 2])
        labels = np.array([0, 1, 2, 2])
        matrix = confusion_matrix(predicted, labels, 3)
        assert matrix[0, 0] == 1
        assert matrix[1, 1] == 1
        assert matrix[2, 1] == 1
        assert matrix[2, 2] == 1
        assert matrix.sum() == 4

    def test_precision_recall(self):
        predicted = np.array([1, 1, 0, 0])
        labels = np.array([1, 0, 1, 0])
        precision, recall = precision_recall(predicted, labels)
        assert precision == pytest.approx(0.5)
        assert recall == pytest.approx(0.5)

    def test_f1_degenerate(self):
        assert f1_score(np.array([0, 0]), np.array([0, 0])) == 0.0

    def test_auc_perfect_ranking(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert auc_score(scores, labels) == pytest.approx(1.0)

    def test_auc_random_is_half(self):
        scores = np.array([0.5, 0.5, 0.5, 0.5])
        labels = np.array([1, 0, 1, 0])
        assert auc_score(scores, labels) == pytest.approx(0.5)

    def test_auc_requires_both_classes(self):
        with pytest.raises(ConfigurationError):
            auc_score(np.array([0.1, 0.2]), np.array([1, 1]))


class TestAverageRanksMatchRankdata:
    """``auc_score`` ranks in NumPy; the ranks must be ``rankdata``'s."""

    # a small value pool makes ties common; NaN and infinities ride along
    scores = st.lists(
        st.sampled_from([-np.inf, -1.5, -0.0, 0.0, 0.25, 0.5, 3.0, np.inf, np.nan]),
        min_size=0, max_size=40,
    )

    @given(scores)
    def test_ranks_equal_rankdata(self, values):
        values = np.array(values, dtype=np.float64)
        ranks = _average_ranks(values)
        assert ranks.tobytes() == rankdata(values).astype(np.float64).tobytes()

    @given(st.integers(1, 30), st.floats(-5, 5))
    def test_all_equal_scores(self, n, value):
        values = np.full(n, value)
        assert _average_ranks(values).tobytes() == rankdata(values).tobytes()

    @given(st.lists(st.tuples(st.sampled_from([0.1, 0.4, 0.4, 0.7, np.nan]),
                              st.sampled_from([0, 1])), min_size=2, max_size=30))
    def test_auc_equals_the_rankdata_formula(self, pairs):
        scores = np.array([s for s, _ in pairs])
        labels = np.array([l for _, l in pairs])
        pos, neg = scores[labels == 1], scores[labels == 0]
        if pos.size == 0 or neg.size == 0:
            return
        ranks = rankdata(np.concatenate([pos, neg]))
        expected = (ranks[: pos.size].sum() - pos.size * (pos.size + 1) / 2.0) / (pos.size * neg.size)
        assert np.array_equal(auc_score(scores, labels), expected, equal_nan=True)
