"""Gradient and shape tests for every layer."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.tensor import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    Sigmoid,
    SoftmaxCrossEntropy,
)
from repro.tensor.im2col import col2im, conv_output_size, im2col

# Finite-difference gradient checks need float64 precision.
pytestmark = pytest.mark.usefixtures("float64_engine")


def numeric_grad(f, array, index, eps=1e-6):
    array[index] += eps
    plus = f()
    array[index] -= 2 * eps
    minus = f()
    array[index] += eps
    return (plus - minus) / (2 * eps)


def check_param_grads(net, x, labels, param_name, spots, tol=1e-5):
    """Compare backprop gradients with central differences."""
    loss = SoftmaxCrossEntropy()

    def forward():
        # Dropout-free nets are deterministic; BatchNorm recomputes batch
        # stats each call, so training-mode forward is a pure function.
        return loss.forward(net.forward(x, training=True), labels)

    net.zero_grads()
    forward()
    net.backward(loss.backward())
    analytic = net.grads[param_name].copy()
    param = net.params[param_name]
    for spot in spots:
        numeric = numeric_grad(forward, param, spot)
        assert analytic[spot] == pytest.approx(numeric, abs=tol), (
            f"{param_name}{spot}: {analytic[spot]} vs {numeric}"
        )


def check_input_grads(net, x, labels, spots, tol=1e-5):
    loss = SoftmaxCrossEntropy()
    x = x.copy()

    def forward():
        return loss.forward(net.forward(x, training=True), labels)

    net.zero_grads()
    forward()
    grad_x = net.backward(loss.backward())
    for spot in spots:
        numeric = numeric_grad(forward, x, spot)
        assert grad_x[spot] == pytest.approx(numeric, abs=tol)


class TestIm2col:
    def test_output_size(self):
        assert conv_output_size(32, 3, 1, 1) == 32
        assert conv_output_size(32, 2, 2, 0) == 16
        assert conv_output_size(5, 3, 1, 0) == 3

    def test_roundtrip_counts(self, rng):
        """col2im(im2col(x)) counts each pixel's window multiplicity."""
        x = np.ones((2, 3, 6, 6))
        cols = im2col(x, 3, 3, 1, 1)
        back = col2im(cols, x.shape, 3, 3, 1, 1)
        # centre pixels appear in 9 windows
        assert back[0, 0, 3, 3] == 9.0
        # corner pixels appear in 4 windows (with pad 1)
        assert back[0, 0, 0, 0] == 4.0

    def test_patch_content(self, rng):
        x = rng.normal(size=(1, 1, 4, 4))
        cols = im2col(x, 2, 2, 2, 0)
        # first column is the top-left 2x2 window
        np.testing.assert_allclose(cols[:, 0], x[0, 0, :2, :2].ravel())


class TestDense:
    def test_forward_shape(self, rng):
        net = Network([Dense(7, name="d")]).build((4,), rng)
        assert net.forward(rng.normal(size=(3, 4))).shape == (3, 7)

    def test_gradients(self, rng):
        net = Network([Dense(6, name="d1"), ReLU(name="r"), Dense(3, name="d2")]).build((5,), rng)
        x = rng.normal(size=(8, 5))
        y = rng.integers(0, 3, size=8)
        check_param_grads(net, x, y, "d1/W", [(0, 0), (2, 3), (4, 5)])
        check_param_grads(net, x, y, "d1/b", [(0,), (5,)])
        check_input_grads(net, x, y, [(0, 0), (3, 2)])

    def test_rejects_multidim_input(self, rng):
        with pytest.raises(ConfigurationError, match="Flatten"):
            Network([Dense(4, name="d")]).build((3, 4, 4), rng)

    def test_rejects_bad_units(self):
        with pytest.raises(ConfigurationError):
            Dense(0)


class TestConv2D:
    def test_forward_shape_same_pad(self, rng):
        net = Network([Conv2D(5, 3, name="c")]).build((2, 9, 9), rng)
        assert net.output_shape == (5, 9, 9)

    def test_forward_shape_strided(self, rng):
        net = Network([Conv2D(4, 3, stride=2, pad=1, name="c")]).build((2, 8, 8), rng)
        assert net.output_shape == (4, 4, 4)

    def test_matches_direct_convolution(self, rng):
        """im2col convolution equals a naive loop implementation."""
        layer = Conv2D(2, 3, pad=1, name="c")
        net = Network([layer]).build((1, 5, 5), rng)
        x = rng.normal(size=(1, 1, 5, 5))
        out = net.forward(x)
        w, b = layer.params["W"], layer.params["b"]
        padded = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for f in range(2):
            for i in range(5):
                for j in range(5):
                    window = padded[0, :, i : i + 3, j : j + 3]
                    expected = float((window * w[f]).sum() + b[f])
                    assert out[0, f, i, j] == pytest.approx(expected)

    def test_gradients(self, rng):
        net = Network(
            [Conv2D(3, 3, name="c"), ReLU(name="r"), Flatten(name="f"), Dense(2, name="d")]
        ).build((2, 5, 5), rng)
        x = rng.normal(size=(4, 2, 5, 5))
        y = rng.integers(0, 2, size=4)
        check_param_grads(net, x, y, "c/W", [(0, 0, 0, 0), (2, 1, 2, 2), (1, 0, 1, 2)])
        check_param_grads(net, x, y, "c/b", [(0,), (2,)])
        check_input_grads(net, x, y, [(0, 0, 0, 0), (2, 1, 3, 4)])

    def test_same_pad_requires_stride_one(self):
        with pytest.raises(ConfigurationError):
            Conv2D(4, 3, stride=2, pad="same")


class TestPooling:
    def test_maxpool_values(self, rng):
        net = Network([MaxPool2D(2, name="p")]).build((1, 4, 4), rng)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = net.forward(x)
        np.testing.assert_allclose(out[0, 0], [[5, 7], [13, 15]])

    def test_maxpool_gradients(self, rng):
        net = Network(
            [MaxPool2D(2, name="p"), Flatten(name="f"), Dense(2, name="d")]
        ).build((2, 4, 4), rng)
        x = rng.normal(size=(3, 2, 4, 4))
        y = rng.integers(0, 2, size=3)
        check_input_grads(net, x, y, [(0, 0, 0, 0), (1, 1, 2, 3), (2, 0, 3, 3)])

    def test_avgpool_values(self, rng):
        net = Network([AvgPool2D(2, name="p")]).build((1, 4, 4), rng)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = net.forward(x)
        np.testing.assert_allclose(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_avgpool_gradients(self, rng):
        net = Network(
            [AvgPool2D(2, name="p"), Flatten(name="f"), Dense(2, name="d")]
        ).build((1, 4, 4), rng)
        x = rng.normal(size=(3, 1, 4, 4))
        y = rng.integers(0, 2, size=3)
        check_input_grads(net, x, y, [(0, 0, 0, 0), (2, 0, 3, 1)])

    def test_pool_collapse_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            Network([MaxPool2D(4, name="p")]).build((1, 2, 2), rng)


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [ReLU, Sigmoid])
    def test_gradients(self, layer_cls, rng):
        net = Network(
            [Dense(5, name="d1"), layer_cls(name="act"), Dense(3, name="d2")]
        ).build((4,), rng)
        x = rng.normal(size=(6, 4))
        y = rng.integers(0, 3, size=6)
        check_param_grads(net, x, y, "d1/W", [(0, 0), (3, 4)])

    def test_relu_zeroes_negatives(self, rng):
        relu = ReLU(name="r")
        out = relu.forward(np.array([[-1.0, 2.0, -3.0]]))
        np.testing.assert_allclose(out, [[0.0, 2.0, 0.0]])

    def test_sigmoid_range(self, rng):
        sig = Sigmoid(name="s")
        out = sig.forward(rng.normal(size=(4, 4)) * 100)
        assert np.all(out >= 0) and np.all(out <= 1)


class TestDropout:
    def test_identity_at_inference(self, rng):
        layer = Dropout(0.5, name="do")
        x = rng.normal(size=(4, 10))
        np.testing.assert_allclose(layer.forward(x, training=False), x)

    def test_training_scales_kept_units(self):
        layer = Dropout(0.5, name="do")
        x = np.ones((1, 10_000))
        out = layer.forward(x, training=True)
        kept = out[out > 0]
        assert kept[0] == pytest.approx(2.0)  # inverted dropout scaling
        assert 0.45 < (out > 0).mean() < 0.55

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, name="do")
        x = np.ones((1, 100))
        out = layer.forward(x, training=True)
        grad = layer.backward(np.ones_like(x))
        np.testing.assert_allclose(grad, out)

    def test_rejects_rate_one(self):
        with pytest.raises(ConfigurationError):
            Dropout(1.0)


class TestBatchNorm:
    def test_normalises_training_batch(self, rng):
        layer = BatchNorm(name="bn")
        Network([layer]).build((6,), rng)
        x = rng.normal(3.0, 2.0, size=(64, 6))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-8)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_used_at_inference(self, rng):
        layer = BatchNorm(name="bn")
        layer.momentum = 0.0  # running = last batch
        Network([layer]).build((4,), rng)
        x = rng.normal(5.0, 3.0, size=(128, 4))
        layer.forward(x, training=True)
        out = layer.forward(x, training=False)
        assert abs(out.mean()) < 0.05

    def test_gradients_2d(self, rng):
        net = Network(
            [Dense(5, name="d1"), BatchNorm(name="bn"), Dense(3, name="d2")]
        ).build((4,), rng)
        x = rng.normal(size=(8, 4))
        y = rng.integers(0, 3, size=8)
        check_param_grads(net, x, y, "bn/gamma", [(0,), (3,)])
        check_param_grads(net, x, y, "bn/beta", [(1,), (4,)])
        check_param_grads(net, x, y, "d1/W", [(0, 0), (2, 2)])

    def test_gradients_4d(self, rng):
        net = Network(
            [Conv2D(2, 3, name="c"), BatchNorm(name="bn"), Flatten(name="f"),
             Dense(2, name="d")]
        ).build((1, 4, 4), rng)
        x = rng.normal(size=(5, 1, 4, 4))
        y = rng.integers(0, 2, size=5)
        check_param_grads(net, x, y, "c/W", [(0, 0, 1, 1), (1, 0, 2, 0)])
        check_param_grads(net, x, y, "bn/gamma", [(0,), (1,)])
