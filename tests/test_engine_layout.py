"""The channel-major engine against the NCHW kernels it replaced.

Activations stay in the (C, H, W, N) memory the conv GEMM writes. That
changes where values live, not which values are added in which order,
so every float32 result must be byte-identical to the previous
engine's. The previous kernels are copied below as the oracle, as
``naive_col2im`` is in ``test_im2col_golden.py``: ``nchw_im2col``
(``np.pad`` + ``sliding_window_view`` over NCHW), ``nchw_col2im`` (slab
adds into an NCHW buffer), ``ArgmaxMaxPool2D`` (``im2col`` + ``argmax``
+ fancy-index gather) and ``WhereReLU``.
"""

from __future__ import annotations

import contextlib
import copy

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from repro.tensor import (
    SGD,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    SoftmaxCrossEntropy,
    using_dtype,
)
from repro.tensor import layers
from repro.tensor.im2col import (
    COL2IM_BINCOUNT_MAX_SLAB,
    col2im_bincount,
    conv_output_size,
)
from repro.zoo.builders import BUILDERS
from test_im2col_golden import channel_major

# ----------------------------------------------------------------------
# the previous engine's kernels
# ----------------------------------------------------------------------


def nchw_im2col(x, kernel_h, kernel_w, stride, pad):
    n, c, h, w = x.shape
    if pad > 0:
        padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    else:
        padded = x
    windows = sliding_window_view(padded, (kernel_h, kernel_w), axis=(2, 3))
    if stride > 1:
        windows = windows[:, :, ::stride, ::stride]
    return windows.transpose(1, 4, 5, 2, 3, 0).reshape(c * kernel_h * kernel_w, -1)


def nchw_col2im(cols, x_shape, kernel_h, kernel_w, stride, pad):
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    patches = cols.reshape(c, kernel_h, kernel_w, out_h, out_w, n).transpose(
        5, 0, 1, 2, 3, 4
    )
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for ki in range(kernel_h):
        rows = slice(ki, ki + stride * out_h, stride)
        for kj in range(kernel_w):
            padded[:, :, rows, kj : kj + stride * out_w : stride] += patches[:, :, ki, kj]
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]


def nchw_col2im_auto(cols, x_shape, kernel_h, kernel_w, stride, pad):
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    if n * c * out_h * out_w <= COL2IM_BINCOUNT_MAX_SLAB:
        return col2im_bincount(cols, x_shape, kernel_h, kernel_w, stride, pad)
    return nchw_col2im(cols, x_shape, kernel_h, kernel_w, stride, pad)


class ArgmaxMaxPool2D(MaxPool2D):
    def forward(self, x, training=False):
        n, c, h, w = x.shape
        p, s = self.pool_size, self.stride
        self._x_shape = x.shape
        cols = nchw_im2col(x.reshape(n * c, 1, h, w), p, p, s, 0)
        self._cols = cols
        self._argmax = np.argmax(cols, axis=0)
        out = cols[self._argmax, np.arange(cols.shape[1])]
        out_h = conv_output_size(h, p, s, 0)
        out_w = conv_output_size(w, p, s, 0)
        return out.reshape(out_h * out_w, n * c).T.reshape(n, c, out_h, out_w)

    def backward(self, grad_out):
        n, c, h, w = self._x_shape
        p, s = self.pool_size, self.stride
        grad_flat = grad_out.reshape(n * c, -1).T.reshape(-1)
        grad_cols = np.zeros_like(self._cols)
        grad_cols[self._argmax, np.arange(grad_cols.shape[1])] = grad_flat
        grad_padded = nchw_col2im_auto(grad_cols, (n * c, 1, h, w), p, p, s, 0)
        return grad_padded.reshape(n, c, h, w)


class WhereReLU(ReLU):
    def forward(self, x, training=False):
        self._mask = x > 0
        return np.where(self._mask, x, 0.0)


@contextlib.contextmanager
def previous_kernels():
    """Route the shipped Conv2D/AvgPool2D through the NCHW kernels."""
    shipped = layers.im2col, layers.col2im_auto
    layers.im2col, layers.col2im_auto = nchw_im2col, nchw_col2im_auto
    try:
        yield
    finally:
        layers.im2col, layers.col2im_auto = shipped


def previous_engine(net: Network) -> Network:
    """An unrun twin of ``net`` whose pools and ReLUs are the old ones."""
    twin = copy.deepcopy(net)
    for i, layer in enumerate(twin.layers):
        if isinstance(layer, MaxPool2D):
            old = ArgmaxMaxPool2D(layer.pool_size, layer.stride, name=layer.name)
        elif isinstance(layer, ReLU):
            old = WhereReLU(name=layer.name)
        else:
            continue
        old.built = True
        twin.layers[i] = old
    return twin


# ----------------------------------------------------------------------
# differential runs
# ----------------------------------------------------------------------


def build_strided(input_shape, num_classes, rng):
    """A stride-2 conv, an overlapping 3x3/2 max pool and a 1x1 conv."""
    return Network(
        [
            Conv2D(6, 3, stride=2, pad=1, name="s2"),
            ReLU(name="r1"),
            MaxPool2D(3, stride=2, name="overlap"),
            Conv2D(4, 1, name="pointwise"),
            ReLU(name="r2"),
            MaxPool2D(2, stride=1, name="tail"),
            Flatten(name="flat"),
            Dense(num_classes, name="fc"),
        ],
        name="strided",
    ).build(input_shape, rng)


NETS = {**BUILDERS, "strided": build_strided}
SHAPES = [(3, 16, 16), (3, 15, 13), (1, 32, 32)]
CLASSES = 10


def train_record(net: Network, x: np.ndarray, y: np.ndarray, steps: int = 3) -> list:
    """Logits, input gradient and every parameter gradient of ``steps``
    SGD steps, then the eval-mode logits of the trained net."""
    loss = SoftmaxCrossEntropy()
    optimizer = SGD(lr=0.05, momentum=0.9)
    record = []
    for _ in range(steps):
        net.zero_grads()
        logits = net.forward(x, training=True)
        loss.forward(logits, y)
        grad_x = net.backward(loss.backward())
        record += [("logits", logits), ("grad_x", grad_x)]
        record += [(name, grad.copy()) for name, grad in net.grads.items()]
        optimizer.step(net.params, net.grads)
    record.append(("eval_logits", net.forward(x)))
    return record


def both_engines(builder, dtype, batch, shape):
    rng = np.random.default_rng(batch * 131 + shape[1])
    with using_dtype(dtype):
        net = builder(shape, CLASSES, rng)
        old = previous_engine(net)
        x = rng.standard_normal((batch,) + shape).astype(dtype)
        y = rng.integers(0, CLASSES, size=batch)
        new_record = train_record(net, x, y)
        with previous_kernels():
            old_record = train_record(old, x, y)
    return new_record, old_record


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("batch", [1, 2, 5, 16, 32])
@pytest.mark.parametrize("net_name", sorted(NETS))
def test_float32_is_byte_identical(net_name, batch, shape):
    new_record, old_record = both_engines(NETS[net_name], np.float32, batch, shape)
    assert len(new_record) == len(old_record)
    for (name, new), (_, old) in zip(new_record, old_record):
        assert new.dtype == old.dtype == np.float32, name
        assert new.shape == old.shape, name
        assert new.tobytes() == old.tobytes(), f"{name}: max |diff| {np.abs(new - old).max()}"


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("net_name", sorted(NETS))
def test_float64_agrees(net_name, batch, shape):
    """float64 to 1e-12, not bytes. The previous engine's columns for a
    1x1 conv over a pooled input (squeeze-mini's ``squeeze1``, the
    strided net's ``pointwise``) were an F-ordered view of the pool's
    output; they are C-ordered now. The weight-gradient dgemm
    ``grad_mat @ cols.T`` moves by about 1e-16 with that operand order
    (sgemm happens not to)."""
    new_record, old_record = both_engines(NETS[net_name], np.float64, batch, shape)
    for (name, new), (_, old) in zip(new_record, old_record):
        np.testing.assert_allclose(new, old, rtol=1e-12, atol=1e-15, err_msg=name)


# ----------------------------------------------------------------------
# MaxPool2D and ReLU against loops
# ----------------------------------------------------------------------


def naive_maxpool(x, p, s):
    """Loop reference: each window's output and the position of its first
    maximum in (ki, kj) order (its first NaN, if it holds one)."""
    n, c, h, w = x.shape
    out_h, out_w = conv_output_size(h, p, s, 0), conv_output_size(w, p, s, 0)
    out = np.empty((n, c, out_h, out_w), dtype=x.dtype)
    source = np.empty((n, c, out_h, out_w, 2), dtype=int)
    for ni in range(n):
        for ci in range(c):
            for i in range(out_h):
                for j in range(out_w):
                    window = x[ni, ci, i * s : i * s + p, j * s : j * s + p].ravel()
                    nans = np.flatnonzero(np.isnan(window))
                    k = nans[0] if len(nans) else int(np.flatnonzero(window == window.max())[0])
                    out[ni, ci, i, j] = window[k]
                    source[ni, ci, i, j] = (i * s + k // p, j * s + k % p)
    return out, source


def naive_maxpool_backward(x_shape, source, grad):
    grad_x = np.zeros(x_shape, dtype=grad.dtype)
    for index in np.ndindex(grad.shape):
        fi, fj = source[index]
        grad_x[index[0], index[1], fi, fj] += grad[index]
    return grad_x


def pool_input(kind, shape, rng):
    x = rng.standard_normal(shape).astype(np.float32)
    if kind == "relu":  # about half the windows' entries tie at zero
        return np.fmax(x, 0)
    if kind == "zeros":  # every window is one big tie
        return np.zeros(shape, dtype=np.float32)
    if kind == "signed_zeros":
        return np.where(rng.random(shape) < 0.5, np.float32(-0.0), np.float32(0.0))
    if kind == "nan":
        x[rng.random(shape) < 0.1] = np.nan
        return x
    return x


# (n, c, h, w, pool, stride): non-overlapping, odd sizes that drop a
# row/column, overlapping windows, and batches on both sides of the
# bincount/slab split of col2im_auto.
POOLS = [
    (2, 3, 8, 8, 2, 2),
    (2, 3, 7, 5, 2, 2),
    (1, 2, 9, 7, 3, 3),
    (2, 3, 9, 9, 3, 2),
    (3, 2, 6, 7, 3, 1),
    (2, 2, 5, 5, 2, 1),
    (16, 8, 16, 16, 2, 2),
    (8, 8, 15, 15, 3, 2),
]


@pytest.mark.parametrize("kind", ["plain", "relu", "zeros", "signed_zeros", "nan"])
@pytest.mark.parametrize("n,c,h,w,p,s", POOLS)
def test_maxpool_matches_loop(kind, n, c, h, w, p, s):
    rng = np.random.default_rng(n * 100 + h * 10 + p)
    x = pool_input(kind, (n, c, h, w), rng)
    layer = MaxPool2D(p, stride=s, name="pool")
    layer.build((c, h, w), rng)
    expected, source = naive_maxpool(x, p, s)
    for given in (x, channel_major(x)):
        out = layer.forward(given, training=True)
        np.testing.assert_array_equal(out, expected)
        # integer-valued gradients: sums are exact in any order
        grad = rng.integers(-8, 9, size=expected.shape).astype(np.float32)
        np.testing.assert_array_equal(
            layer.backward(grad), naive_maxpool_backward(x.shape, source, grad)
        )


def test_relu_matches_where():
    x = np.array(
        [[-1.5, 2.0, 0.0, -0.0, np.nan, np.inf, -np.inf, 1e-45]], dtype=np.float32
    )
    new, old = ReLU(name="new"), WhereReLU(name="old")
    assert new.forward(x, training=True).tobytes() == old.forward(x).tobytes()
    np.testing.assert_array_equal(new._mask, old._mask)
    assert new.forward(x).tobytes() == old.forward(x).tobytes()
