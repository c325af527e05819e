"""Tests for synthetic dataset generators."""

import numpy as np
import pytest

from repro.data import make_image_classification, make_sentiment_dataset
from repro.exceptions import ConfigurationError


class TestImageClassification:
    def test_shapes_and_splits(self):
        ds = make_image_classification(
            num_classes=4, image_shape=(3, 16, 16),
            train_per_class=10, val_per_class=3, test_per_class=2,
        )
        assert ds.train_x.shape == (40, 3, 16, 16)
        assert ds.val_x.shape == (12, 3, 16, 16)
        assert ds.test_x.shape == (8, 3, 16, 16)
        assert len(ds) == 60
        assert ds.image_shape == (3, 16, 16)

    def test_balanced_labels(self):
        ds = make_image_classification(num_classes=5, train_per_class=7)
        counts = np.bincount(ds.train_y, minlength=5)
        assert np.all(counts == 7)

    def test_deterministic_by_seed(self):
        a = make_image_classification(seed=3, train_per_class=4)
        b = make_image_classification(seed=3, train_per_class=4)
        np.testing.assert_array_equal(a.train_x, b.train_x)
        np.testing.assert_array_equal(a.train_y, b.train_y)

    def test_different_seeds_differ(self):
        a = make_image_classification(seed=1, train_per_class=4)
        b = make_image_classification(seed=2, train_per_class=4)
        assert not np.array_equal(a.train_x, b.train_x)

    def test_difficulty_controls_noise(self):
        easy = make_image_classification(difficulty=0.1, train_per_class=8, seed=0)
        hard = make_image_classification(difficulty=1.5, train_per_class=8, seed=0)
        # a nearest-template classifier separates easy better than hard
        assert easy.train_x.std() < hard.train_x.std()

    def test_classes_are_distinguishable(self):
        """Per-class means differ more across classes than within."""
        ds = make_image_classification(
            num_classes=3, train_per_class=20, difficulty=0.3, seed=5
        )
        means = np.stack([
            ds.train_x[ds.train_y == c].mean(axis=0).ravel() for c in range(3)
        ])
        cross = np.linalg.norm(means[0] - means[1])
        assert cross > 1.0  # templates have unit-ish contrast

    def test_splits_dict(self):
        ds = make_image_classification(train_per_class=2, val_per_class=1, test_per_class=1)
        splits = ds.splits()
        assert set(splits) == {"train", "val", "test"}

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            make_image_classification(num_classes=1)
        with pytest.raises(ConfigurationError):
            make_image_classification(difficulty=-1)


class TestSentiment:
    def test_shapes(self):
        train_x, train_y, test_x, test_y = make_sentiment_dataset(
            vocab_size=50, train_count=30, test_count=10
        )
        assert train_x.shape == (30, 50)
        assert test_x.shape == (10, 50)
        assert set(np.unique(train_y)) <= {0, 1}

    def test_documents_have_fixed_length(self):
        train_x, *_ = make_sentiment_dataset(train_count=10)
        np.testing.assert_allclose(train_x.sum(axis=1), 30)

    def test_polarity_signal_is_learnable(self):
        train_x, train_y, test_x, test_y = make_sentiment_dataset(
            vocab_size=100, train_count=200, test_count=100, signal=1.5, seed=1
        )
        # a trivial polarity-sum classifier should beat chance easily
        polarity = np.concatenate([np.ones(50), -np.ones(50)])
        predictions = (test_x @ polarity > 0).astype(int)
        assert np.mean(predictions == test_y) > 0.8

    def test_rejects_tiny_vocab(self):
        with pytest.raises(ConfigurationError):
            make_sentiment_dataset(vocab_size=2)
