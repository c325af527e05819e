"""Tests for preprocessing operators (Table 1 group 1)."""

import numpy as np
import pytest

from repro.data import Compose, PadCrop, RandomFlip, Standardize, standard_cifar_pipeline
from repro.exceptions import ConfigurationError


class TestStandardize:
    def test_unit_stats_after_fit(self, rng):
        x = rng.normal(5.0, 3.0, size=(100, 3, 8, 8))
        op = Standardize().fit(x)
        out = op(x, rng)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-6)

    def test_unfitted_raises(self, rng):
        with pytest.raises(ConfigurationError, match="fitted"):
            Standardize()(np.zeros((1, 3, 4, 4)), rng)

    def test_per_channel(self, rng):
        x = np.zeros((10, 2, 4, 4))
        x[:, 0] = rng.normal(0, 1, size=(10, 4, 4))
        x[:, 1] = rng.normal(100, 10, size=(10, 4, 4))
        op = Standardize().fit(x)
        out = op(x, rng)
        assert abs(out[:, 1].mean()) < 1e-8


class TestPadCrop:
    def test_preserves_shape(self, rng):
        op = PadCrop(pad=4)
        x = rng.normal(size=(5, 3, 32, 32))
        assert op(x, rng).shape == x.shape

    def test_zero_pad_is_identity(self, rng):
        op = PadCrop(pad=0)
        x = rng.normal(size=(2, 3, 8, 8))
        assert op(x, rng) is x

    def test_crops_come_from_padded_image(self, rng):
        op = PadCrop(pad=2)
        x = np.ones((50, 1, 4, 4))
        out = op(x, rng)
        # every crop either keeps the ones or pulls in zero padding
        assert out.max() == 1.0
        assert out.min() == 0.0  # some crop must include padding


class TestRandomFlip:
    def test_p_zero_identity(self, rng):
        op = RandomFlip(p=0.0)
        x = rng.normal(size=(4, 1, 3, 3))
        assert op(x, rng) is x

    def test_p_one_flips_everything(self, rng):
        op = RandomFlip(p=1.0)
        x = rng.normal(size=(4, 1, 3, 3))
        np.testing.assert_allclose(op(x, rng), x[..., ::-1])

    def test_flip_rate_near_p(self, rng):
        op = RandomFlip(p=0.5)
        x = np.zeros((2000, 1, 1, 2))
        x[..., 0] = 1.0
        out = op(x, rng)
        flipped = (out[..., 1] == 1.0).mean()
        assert 0.45 < flipped < 0.55


class TestCompose:
    def test_order_is_respected(self, rng):
        trace = []

        def op_a(batch, r):
            trace.append("a")
            return batch

        def op_b(batch, r):
            trace.append("b")
            return batch

        Compose([op_a, op_b])(np.zeros((1, 1, 2, 2)), rng)
        assert trace == ["a", "b"]

    def test_standard_cifar_pipeline(self, rng):
        x = rng.normal(2.0, 5.0, size=(20, 3, 16, 16))
        pipeline = standard_cifar_pipeline(x, pad=2)
        out = pipeline(x, rng)
        assert out.shape == x.shape
        # standardisation happened before crop/flip
        assert abs(out.mean()) < 0.5
