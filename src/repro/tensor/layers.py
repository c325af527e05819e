"""Neural-network layers with explicit forward/backward passes.

Every layer exposes:

* ``forward(x, training)`` — compute the output, caching what backward
  needs;
* ``backward(grad_out)`` — return the gradient w.r.t. the input and
  accumulate parameter gradients into ``layer.grads``;
* ``params`` / ``grads`` — dictionaries keyed by local parameter name
  (``"W"``, ``"b"``, ...), which the :class:`~repro.tensor.network.Network`
  namespaces as ``"<layer-name>/<param>"``.

Parameter shapes are created lazily on the first forward pass (or by
``Network.build``), so layers can be declared without knowing input
shapes.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.tensor.dtype import default_dtype
from repro.tensor.im2col import col2im_auto, conv_output_size, im2col
from repro.tensor.initializers import glorot_uniform_init, zeros_init

__all__ = [
    "Layer",
    "Dense",
    "Conv2D",
    "MaxPool2D",
    "AvgPool2D",
    "Flatten",
    "ReLU",
    "Sigmoid",
    "Dropout",
    "BatchNorm",
]

Initializer = Callable[[tuple[int, ...], np.random.Generator], np.ndarray]


class Layer:
    """Base class for all layers."""

    _counter = 0
    #: what a training forward keeps for ``backward``; an inference forward
    #: and ``Network.backward`` leave it None (``backward`` then asserts).
    saved_for_backward: tuple[str, ...] = ()

    def __init__(self, name: str | None = None):
        if name is None:
            Layer._counter += 1
            name = f"{type(self).__name__.lower()}_{Layer._counter}"
        self.name = name
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}
        #: non-trainable state saved/loaded with the parameters
        #: (e.g. batch-norm running statistics).
        self.buffers: dict[str, np.ndarray] = {}
        self.built = False

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        """Create parameters for ``input_shape`` and return the output shape.

        ``input_shape`` excludes the batch dimension.
        """
        self.built = True
        return input_shape

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grads(self) -> None:
        for key in self.grads:
            self.grads[key][...] = 0.0

    def param_count(self) -> int:
        return int(sum(p.size for p in self.params.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class Dense(Layer):
    """Fully connected layer: ``y = x @ W + b``."""

    saved_for_backward = ("_x",)

    def __init__(
        self,
        units: int,
        name: str | None = None,
        weight_init: Initializer = glorot_uniform_init,
    ):
        super().__init__(name)
        if units <= 0:
            raise ConfigurationError(f"units must be > 0, got {units}")
        self.units = int(units)
        self.weight_init = weight_init
        self._x: np.ndarray | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        if len(input_shape) != 1:
            raise ConfigurationError(
                f"Dense expects flat input, got shape {input_shape}; add a Flatten layer"
            )
        in_features = input_shape[0]
        self.params["W"] = self.weight_init((in_features, self.units), rng)
        self.grads["W"] = np.zeros_like(self.params["W"])
        self.params["b"] = zeros_init((self.units,), rng)
        self.grads["b"] = np.zeros_like(self.params["b"])
        self.built = True
        return (self.units,)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x = x if training else None
        return x @ self.params["W"] + self.params["b"]

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward requires a training-mode forward"
        self.grads["W"] += self._x.T @ grad_out
        self.grads["b"] += grad_out.sum(axis=0)
        return grad_out @ self.params["W"].T


class Conv2D(Layer):
    """2-D convolution (NCHW) implemented via im2col."""

    saved_for_backward = ("_cols",)

    def __init__(
        self,
        filters: int,
        kernel_size: int = 3,
        stride: int = 1,
        pad: int | str = "same",
        name: str | None = None,
        weight_init: Initializer = glorot_uniform_init,
    ):
        super().__init__(name)
        if filters <= 0 or kernel_size <= 0 or stride <= 0:
            raise ConfigurationError("filters, kernel_size and stride must be > 0")
        self.filters = int(filters)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        if pad == "same":
            if stride != 1:
                raise ConfigurationError("pad='same' requires stride=1")
            pad = (kernel_size - 1) // 2
        self.pad = int(pad)
        self.weight_init = weight_init
        self._x_shape: tuple[int, int, int, int] | None = None
        self._cols: np.ndarray | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        if len(input_shape) != 3:
            raise ConfigurationError(f"Conv2D expects (C, H, W) input, got {input_shape}")
        c, h, w = input_shape
        k = self.kernel_size
        self.params["W"] = self.weight_init((self.filters, c, k, k), rng)
        self.params["b"] = zeros_init((self.filters,), rng)
        self.grads["W"] = np.zeros_like(self.params["W"])
        self.grads["b"] = np.zeros_like(self.params["b"])
        out_h = conv_output_size(h, k, self.stride, self.pad)
        out_w = conv_output_size(w, k, self.stride, self.pad)
        if out_h <= 0 or out_w <= 0:
            raise ConfigurationError(
                f"Conv2D output collapsed to {(out_h, out_w)} for input {input_shape}"
            )
        self.built = True
        return (self.filters, out_h, out_w)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        k = self.kernel_size
        self._x_shape = x.shape
        cols = im2col(x, k, k, self.stride, self.pad)
        self._cols = cols if training else None
        w_mat = self.params["W"].reshape(self.filters, -1)
        out = w_mat @ cols + self.params["b"].reshape(-1, 1)
        out_h = conv_output_size(h, k, self.stride, self.pad)
        out_w = conv_output_size(w, k, self.stride, self.pad)
        # (F, H, W, N) memory handed on as its NCHW view: the next
        # layer reads it channel-major without a copy.
        return out.reshape(self.filters, out_h, out_w, n).transpose(3, 0, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cols is not None, "backward requires a training-mode forward"
        n, f, out_h, out_w = grad_out.shape
        grad_mat = grad_out.transpose(1, 2, 3, 0).reshape(f, -1)
        self.grads["b"] += grad_mat.sum(axis=1)
        self.grads["W"] += (grad_mat @ self._cols.T).reshape(self.params["W"].shape)
        w_mat = self.params["W"].reshape(self.filters, -1)
        grad_cols = w_mat.T @ grad_mat
        k = self.kernel_size
        return col2im_auto(grad_cols, self._x_shape, k, k, self.stride, self.pad)


class MaxPool2D(Layer):
    """Max pooling over non-overlapping (or strided) windows.

    Works on the channel-major (C, H, W, N) view of its input, one
    strided slice per kernel offset, with no im2col.
    """

    saved_for_backward = ("_x", "_out")

    def __init__(self, pool_size: int = 2, stride: int | None = None, name: str | None = None):
        super().__init__(name)
        self.pool_size = int(pool_size)
        self.stride = int(stride) if stride is not None else self.pool_size
        self._x: np.ndarray | None = None
        self._out: np.ndarray | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        c, h, w = input_shape
        out_h = conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = conv_output_size(w, self.pool_size, self.stride, 0)
        if out_h <= 0 or out_w <= 0:
            raise ConfigurationError(f"pooling collapsed input {input_shape}")
        self.built = True
        return (c, out_h, out_w)

    def _windows(self, chwn: np.ndarray):
        """The (C, out_h, out_w, N) slice under each kernel offset, (ki, kj) order."""
        c, h, w, n = chwn.shape
        p, s = self.pool_size, self.stride
        out_h = conv_output_size(h, p, s, 0)
        out_w = conv_output_size(w, p, s, 0)
        for ki in range(p):
            for kj in range(p):
                yield ki, kj, chwn[:, ki : ki + s * out_h : s, kj : kj + s * out_w : s]

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        chwn = x.transpose(1, 2, 3, 0)
        out = None
        for _, _, window in self._windows(chwn):
            # np.maximum returns its second operand on a tie, so the
            # earliest offset's value is the one kept.
            out = window.copy() if out is None else np.maximum(window, out, out=out)
        self._x, self._out = (chwn, out) if training else (None, None)
        return out.transpose(3, 0, 1, 2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x is not None, "backward requires a training-mode forward"
        chwn, out = self._x, self._out
        c, h, w, n = chwn.shape
        p = self.pool_size
        grad = grad_out.transpose(1, 2, 3, 0)
        # Each window's gradient goes to its first maximal position in
        # (ki, kj) order; a window holding NaN sends it to its first NaN.
        # col2im_auto then sums overlapping windows as it sums patches.
        grad_cols = np.zeros((c, p, p) + out.shape[1:], dtype=grad_out.dtype)
        unclaimed = np.ones(out.shape, dtype=bool)
        for ki, kj, window in self._windows(chwn):
            hit = (window == out) | np.isnan(window)
            hit &= unclaimed
            unclaimed &= ~hit
            np.copyto(grad_cols[:, ki, kj], grad, where=hit)
        return col2im_auto(grad_cols.reshape(c * p * p, -1), (n, c, h, w), p, p, self.stride, 0)


class AvgPool2D(Layer):
    """Non-overlapping average pooling (global when ``pool_size`` equals
    the feature map): the stride is the pool size."""

    def __init__(self, pool_size: int = 2, name: str | None = None):
        super().__init__(name)
        self.pool_size = int(pool_size)
        self.stride = self.pool_size
        self._x_shape: tuple[int, int, int, int] | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        c, h, w = input_shape
        out_h = conv_output_size(h, self.pool_size, self.stride, 0)
        out_w = conv_output_size(w, self.pool_size, self.stride, 0)
        if out_h <= 0 or out_w <= 0:
            raise ConfigurationError(f"pooling collapsed input {input_shape}")
        self.built = True
        return (c, out_h, out_w)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        n, c, h, w = x.shape
        p, s = self.pool_size, self.stride
        self._x_shape = x.shape
        reshaped = x.reshape(n * c, 1, h, w)
        cols = im2col(reshaped, p, p, s, 0)
        out = cols.mean(axis=0)
        out_h = conv_output_size(h, p, s, 0)
        out_w = conv_output_size(w, p, s, 0)
        return out.reshape(out_h * out_w, n * c).T.reshape(n, c, out_h, out_w)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x_shape is not None
        n, c, h, w = self._x_shape
        p, s = self.pool_size, self.stride
        grad_flat = grad_out.reshape(n * c, -1).T.reshape(-1)
        grad_cols = np.tile(grad_flat / (p * p), (p * p, 1))
        grad_padded = col2im_auto(grad_cols, (n * c, 1, h, w), p, p, s, 0)
        return grad_padded.reshape(n, c, h, w)


class Flatten(Layer):
    """Reshape ``(N, ...)`` to ``(N, prod(...))``."""

    def __init__(self, name: str | None = None):
        super().__init__(name)
        self._x_shape: tuple[int, ...] | None = None

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        self.built = True
        return (int(np.prod(input_shape)),)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._x_shape = x.shape
        # C order for Dense: BLAS picks its kernel, and so its rounding,
        # from the operand layout, and a channel-major input would
        # otherwise flatten to an F-ordered view.
        return np.ascontiguousarray(x.reshape(x.shape[0], math.prod(x.shape[1:])))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._x_shape is not None
        return grad_out.reshape(self._x_shape)


class ReLU(Layer):
    """Rectified linear unit."""

    saved_for_backward = ("_mask",)

    def __init__(self, name: str | None = None):
        super().__init__(name)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self._mask = x > 0 if training else None
        return np.fmax(x, 0)  # NaN and -0.0 become +0.0

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._mask is not None, "backward requires a training-mode forward"
        return grad_out * self._mask


class Sigmoid(Layer):
    """Logistic sigmoid."""

    saved_for_backward = ("_out",)

    def __init__(self, name: str | None = None):
        super().__init__(name)
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
        self._out = out if training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._out is not None, "backward requires a training-mode forward"
        return grad_out * self._out * (1.0 - self._out)


class Dropout(Layer):
    """Inverted dropout; identity at inference time.

    The drop rate is one of the Section 7.1 tuning knobs.
    """

    saved_for_backward = ("_mask",)

    def __init__(self, rate: float = 0.5, name: str | None = None):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ConfigurationError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = float(rate)
        self._rng = np.random.default_rng(0)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        mask = (self._rng.random(x.shape) < keep).astype(x.dtype)
        mask /= keep
        self._mask = mask
        return x * self._mask

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class BatchNorm(Layer):
    """Batch normalisation over the channel axis (2-D or 4-D inputs)."""

    saved_for_backward = ("_cache",)

    #: added to the variance before its square root.
    eps = 1e-5
    #: weight of the old running statistics in each training batch's update.
    momentum = 0.9

    def __init__(self, name: str | None = None):
        super().__init__(name)
        self._cache: tuple | None = None
        self._ndim = 2

    def build(self, input_shape: tuple[int, ...], rng: np.random.Generator) -> tuple[int, ...]:
        channels = input_shape[0]
        dtype = default_dtype()
        self._ndim = len(input_shape) + 1
        self.params["gamma"] = np.ones(channels, dtype=dtype)
        self.params["beta"] = np.zeros(channels, dtype=dtype)
        self.grads["gamma"] = np.zeros(channels, dtype=dtype)
        self.grads["beta"] = np.zeros(channels, dtype=dtype)
        self.buffers["running_mean"] = np.zeros(channels, dtype=dtype)
        self.buffers["running_var"] = np.ones(channels, dtype=dtype)
        self.built = True
        return input_shape

    @property
    def running_mean(self) -> np.ndarray | None:
        return self.buffers.get("running_mean")

    @running_mean.setter
    def running_mean(self, value: np.ndarray) -> None:
        self.buffers["running_mean"] = value

    @property
    def running_var(self) -> np.ndarray | None:
        return self.buffers.get("running_var")

    @running_var.setter
    def running_var(self, value: np.ndarray) -> None:
        self.buffers["running_var"] = value

    def _axes(self) -> tuple[int, ...]:
        return (0,) if self._ndim == 2 else (0, 2, 3)

    def _bshape(self) -> tuple[int, ...]:
        return (1, -1) if self._ndim == 2 else (1, -1, 1, 1)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        assert self.running_mean is not None and self.running_var is not None
        axes, bshape = self._axes(), self._bshape()
        if training:
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            m = self.momentum
            # Update the running statistics in place so references held
            # elsewhere (state dicts, aliasing tests) stay valid and no
            # buffer is reallocated per batch.
            self.running_mean *= m
            self.running_mean += (1 - m) * mean
            self.running_var *= m
            self.running_var += (1 - m) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv_std = 1.0 / np.sqrt(var + self.eps)
        x_hat = (x - mean.reshape(bshape)) * inv_std.reshape(bshape)
        self._cache = (x_hat, inv_std) if training else None
        return self.params["gamma"].reshape(bshape) * x_hat + self.params["beta"].reshape(bshape)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        assert self._cache is not None, "backward requires a training-mode forward"
        x_hat, inv_std = self._cache
        # The sums below run in memory order; reducing over C order keeps
        # their rounding independent of the layout the next layer's
        # backward handed back.
        grad_out = np.ascontiguousarray(grad_out)
        axes, bshape = self._axes(), self._bshape()
        self.grads["gamma"] += (grad_out * x_hat).sum(axis=axes)
        self.grads["beta"] += grad_out.sum(axis=axes)
        gamma = self.params["gamma"].reshape(bshape)
        grad_xhat = grad_out * gamma
        term1 = grad_xhat
        term2 = grad_xhat.mean(axis=axes).reshape(bshape)
        term3 = x_hat * (grad_xhat * x_hat).mean(axis=axes).reshape(bshape)
        return (term1 - term2 - term3) * inv_std.reshape(bshape)
