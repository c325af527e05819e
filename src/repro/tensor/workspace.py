"""The inference workspace: a network's ``training=False`` forward over
buffers it keeps.

``Network.forward(x, training=False)`` runs here, and with it
``predict``, ``predict_labels`` and ``evaluate``. A workspace serves one
sample shape and dtype, and every batch size up to its ``capacity``.
For each batch size it builds, once, a list of steps over views of its
buffers:

* a convolution copies its input into the interior of a padded buffer
  whose zero border was written once, copies the patches into the
  im2col columns, and writes the GEMM with ``np.matmul(..., out=)``;
  bias, batch norm and ReLU then run in place on that output;
* max and global average pooling write into buffers of their own, and so
  does a flatten whose reshape would copy;
* any other layer runs its own ``forward(x, training=False)``, and so
  does a layer whose parameters are not in the input's dtype or whose
  input the workspace does not own.

**Byte identity.** Each step does the float operations of the layer
loop, in the same order, on operands laid out as the layer loop lays
them out: BLAS picks its kernel, and NumPy its summation order, from
the layout. Every buffer but the padded inputs is a C-ordered prefix of
a flat arena, as the layer loop's fresh arrays are C-ordered, and views
are taken with the layer loop's own expressions. The one rewritten
reduction is the global ``AvgPool2D``: the layer loop's
``cols.mean(axis=0)`` runs on a view whose reduced axis is contiguous,
so NumPy sums each window pairwise; the workspace reduces a C-ordered
``(N*C, H*W)`` copy along axis 1, which sums the same way.

**Memory.** Steps run one after another, so they share arenas: one holds
the columns of every convolution, and two take turns holding each
step's output. Only the padded inputs are kept per geometry, so that
their borders stay zero. A network keeps one workspace of at most
:data:`WORKSPACE_BYTES`, grown to the largest batch it has run, so
batch sizes that vary call to call build nothing new. A batch that
needs more runs the layer loop: built afresh for it and dropped after
the call, the same steps ran 1.5x slower than the layer loop (snoek8
and resnet-mini on 64 images), and their buffers, all live at once, peak
above the layer loop's. No buffer leaves: the answer is a copy.

Parameters are read live. The steps hold views of the parameter arrays,
which every writer (optimisers, ``load_state_dict``, ``warm_start``,
batch-norm statistics) updates in place; a parameter array replaced in
its layer's dict makes the network build a new workspace.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.tensor.im2col import conv_output_size
from repro.tensor.layers import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
)

__all__ = ["WORKSPACE_BYTES", "Workspace"]

#: Buffer bytes a network keeps between inference calls; a batch whose
#: buffers would need more runs the layer loop. 512 KiB holds one image
#: (a blocking query) of every zoo ConvNet at 3x32x32: snoek8 needs
#: 475 KB. A 16-image batch of snoek8 at 3x16x16 needs 1.9 MB; kept, it
#: raised the serving workloads' peak RSS by 2-5 %.
WORKSPACE_BYTES = 512 << 10


class _Act:
    """A step's output: ``view`` as the layer loop would return it, ``flat``
    the same memory as a C-ordered 2-D array with channels on ``axis``."""

    __slots__ = ("view", "flat", "axis", "arena")

    def __init__(self, view, flat, axis, arena):
        self.view, self.flat, self.axis, self.arena = view, flat, axis, arena

    def per_channel(self, vector: np.ndarray) -> np.ndarray:
        return vector.reshape((-1, 1) if self.axis == 0 else (1, -1))


def _other(arena: str | None) -> str:
    return "act1" if arena == "act0" else "act0"


class Workspace:
    """The inference buffers and steps of one network for inputs of
    ``sample_shape`` and ``dtype``.

    It keeps buffers for the largest batch it has run, and takes no
    batch above ``limit``, the largest whose buffers fit in
    :data:`WORKSPACE_BYTES`.
    """

    def __init__(self, layers: list[Layer], sample_shape: tuple[int, ...], dtype):
        self.layers = list(layers)
        self.sample_shape = tuple(sample_shape)
        self.dtype = np.dtype(dtype)
        self.capacity = -1  # no buffers until the first batch
        self._arenas: dict = {}
        self._plans: dict[int, tuple[list, np.ndarray | None]] = {}
        self._busy = False
        # Every buffer but the batch-norm scratch grows with the batch,
        # linearly from two images up (one image may flatten in place).
        sizes, self._live = self._sizes(2)
        two = sum(sizes.values()) * self.dtype.itemsize
        per_image = (sum(self._sizes(4)[0].values()) * self.dtype.itemsize - two) // 2
        self.limit = (
            (WORKSPACE_BYTES - two + 2 * per_image) // per_image if per_image else sys.maxsize
        )

    def holds(self, layers: list[Layer], x: np.ndarray) -> bool:
        """Whether this workspace runs ``x`` through ``layers`` as they are now."""
        if x.shape[1:] != self.sample_shape or x.dtype != self.dtype or layers != self.layers:
            return False
        for owner, key, array in self._live:
            if owner.get(key) is not array:
                return False
        return True

    def _sizes(self, n: int) -> tuple[dict, list]:
        """The elements each arena needs for an ``n``-image batch, and
        the parameters the steps read."""
        sizes: dict = {}

        def measure(slot, shape):
            sizes[slot] = max(sizes.get(slot, 0), math.prod(shape))
            return np.empty(shape, self.dtype)  # never written

        return sizes, self._build(n, measure)[2]

    def _grow(self, capacity: int) -> None:
        sizes, self._live = self._sizes(capacity)
        self._arenas = {
            slot: np.zeros((*slot[1:4], capacity), self.dtype) if slot[0] == "pad"
            else np.empty(size, self.dtype)
            for slot, size in sizes.items()
        }
        self.capacity = capacity
        self._plans.clear()

    def run(self, x: np.ndarray) -> np.ndarray:
        """The layer loop's ``training=False`` output for ``x``, as a new array."""
        if self._busy:
            raise RuntimeError(
                "a network's inference workspace is already running: one network "
                "must not run two forwards at once"
            )
        self._busy = True
        try:
            n = x.shape[0]
            if n > self.capacity:
                self._grow(n)
            plan = self._plans.get(n)
            if plan is None:
                steps, out, _ = self._build(n, self._take)
                plan = self._plans[n] = (steps, out)
            steps, out = plan
            value = x
            for fn, args in steps:
                if args is None:
                    value = fn(value)
                else:
                    fn(*args)
            if out is not None:
                return out.copy(order="K")
            if any(np.may_share_memory(value, arena) for arena in self._arenas.values()):
                return value.copy(order="K")
            return value
        finally:
            self._busy = False

    # ------------------------------------------------------------------
    # building the steps
    # ------------------------------------------------------------------

    def _take(self, slot, shape) -> np.ndarray:
        """``shape`` out of ``slot``'s arena: the first ``shape[-1]`` images
        of a padded buffer, else a C-ordered prefix of a flat arena."""
        arena = self._arenas[slot]
        if slot[0] == "pad":
            return arena[..., : shape[-1]]
        return arena[: math.prod(shape)].reshape(shape)

    def _build(self, n: int, take: Callable) -> tuple[list, np.ndarray | None, list]:
        """The steps for an ``n``-image batch over ``take(slot, shape)``'s
        arrays; the buffer holding the answer (None: the last step
        returns it); and ``(dict, key, array)`` for each parameter the
        steps read."""
        steps: list = []
        live: list = []
        shape = (n, *self.sample_shape)
        cur: _Act | None = None  # None: the network's input

        def reads(group: dict, key: str) -> np.ndarray:
            live.append((group, key, group[key]))
            return group[key]

        for i, layer in enumerate(self.layers):
            kind = type(layer)
            own = all(
                array.dtype == self.dtype
                for array in (*layer.params.values(), *layer.buffers.values())
            )
            for attr in layer.saved_for_backward:
                steps.append((setattr, (layer, attr, None)))
            if kind is Dropout:
                continue
            if kind is Conv2D and own and len(shape) == 4 and (cur or layer.pad > 0):
                cur = self._conv(layer, cur, shape, take, steps, reads)
            elif kind is Dense and own and len(shape) == 2:
                weights = reads(layer.params, "W")
                arena = _other(cur and cur.arena)
                out = take(arena, (n, weights.shape[1]))
                if cur is None:
                    steps.append((lambda v, w=weights, out=out: np.matmul(v, w, out), None))
                else:
                    steps.append((np.matmul, (cur.view, weights, out)))
                steps.append((np.add, (out, reads(layer.params, "b"), out)))
                cur = _Act(out, out, 1, arena)
            elif kind is BatchNorm and own and cur and layer._ndim == len(shape):
                self._batch_norm(i, layer, cur, take, steps, reads)
            elif kind is ReLU and cur:
                steps.append((np.fmax, (cur.flat, 0, cur.flat)))
            elif kind is MaxPool2D and cur and len(shape) == 4:
                cur = self._max_pool(layer, cur, shape, take, steps)
            elif kind is AvgPool2D and cur and len(shape) == 4 and (
                shape[2] == shape[3] == layer.pool_size
            ):
                cur = self._global_avg_pool(cur, shape, take, steps)
            elif kind is Flatten:
                cur = self._flatten(cur, shape, take, steps)
            else:
                # The rest of the network runs the layer loop, on what
                # the step before wrote or on the network's input.
                src = cur and cur.view
                steps.append((
                    lambda v, f=layer.forward, src=src: f(v if src is None else src, False),
                    None,
                ))
                for rest in self.layers[i + 1 :]:
                    steps.append((lambda v, f=rest.forward: f(v, False), None))
                return steps, None, live
            shape = cur.view.shape
        return steps, cur and cur.view, live

    def _conv(self, layer, cur, shape, take, steps, reads) -> _Act:
        n, c, h, w = shape
        k, s, p = layer.kernel_size, layer.stride, layer.pad
        out_h, out_w = conv_output_size(h, k, s, p), conv_output_size(w, k, s, p)
        if p > 0:
            padded = take(("pad", c, h + 2 * p, w + 2 * p, p), (c, h + 2 * p, w + 2 * p, n))
            interior = padded[:, p : p + h, p : p + w].transpose(3, 0, 1, 2)
            if cur is None:
                steps.append((lambda v, interior=interior: np.copyto(interior, v), None))
            else:
                steps.append((np.copyto, (interior, cur.view)))
        else:
            padded = cur.view.transpose(1, 2, 3, 0)
        s_c, s_h, s_w, s_n = padded.strides
        windows = as_strided(
            padded, (c, k, k, out_h, out_w, n),
            (s_c, s_h, s_w, s * s_h, s * s_w, s_n), writeable=False,
        )
        cols = take("cols", (c * k * k, out_h * out_w * n))
        steps.append((np.copyto, (cols.reshape(windows.shape), windows)))
        arena = _other(cur and cur.arena)
        out = take(arena, (layer.filters, out_h * out_w * n))
        weights = reads(layer.params, "W").reshape(layer.filters, -1)
        steps.append((np.matmul, (weights, cols, out)))
        steps.append((np.add, (out, reads(layer.params, "b").reshape(-1, 1), out)))
        view = out.reshape(layer.filters, out_h, out_w, n).transpose(3, 0, 1, 2)
        return _Act(view, out, 0, arena)

    @staticmethod
    def _batch_norm(i, layer, cur, take, steps, reads) -> None:
        # The layer loop's (x - mean) * (1 / sqrt(var + eps)) * gamma +
        # beta, one operation at a time, in place.
        var = reads(layer.buffers, "running_var")
        inv_std = take(("bn", i), var.shape)
        flat = cur.flat
        steps += [
            (np.add, (var, layer.eps, inv_std)),
            (np.sqrt, (inv_std, inv_std)),
            (np.divide, (1.0, inv_std, inv_std)),
            (np.subtract, (flat, cur.per_channel(reads(layer.buffers, "running_mean")), flat)),
            (np.multiply, (flat, cur.per_channel(inv_std), flat)),
            (np.multiply, (cur.per_channel(reads(layer.params, "gamma")), flat, flat)),
            (np.add, (flat, cur.per_channel(reads(layer.params, "beta")), flat)),
        ]

    @staticmethod
    def _max_pool(layer, cur, shape, take, steps) -> _Act:
        n, c = shape[:2]
        windows = [window for _, _, window in layer._windows(cur.view.transpose(1, 2, 3, 0))]
        arena = _other(cur.arena)
        out = take(arena, windows[0].shape)
        steps.append((np.copyto, (out, windows[0])))
        # np.maximum takes its output by keyword only.
        maximum = partial(np.maximum, out=out)
        steps += [(maximum, (window, out)) for window in windows[1:]]
        return _Act(out.transpose(3, 0, 1, 2), out.reshape(c, -1), 0, arena)

    @staticmethod
    def _global_avg_pool(cur, shape, take, steps) -> _Act:
        n, c, h, w = shape
        copy = take(_other(cur.arena), shape)
        means = take(cur.arena, (n * c,))  # the copy has freed the input's arena
        steps += [
            (np.copyto, (copy, cur.view)),
            (np.add.reduce, (copy.reshape(n * c, h * w), 1, None, means)),
            (np.true_divide, (means, np.intp(h * w), means)),
        ]
        view = means.reshape(1, n * c).T.reshape(n, c, 1, 1)
        return _Act(view, means.reshape(n, c), 1, cur.arena)

    @staticmethod
    def _flatten(cur, shape, take, steps) -> _Act:
        flat_shape = (shape[0], math.prod(shape[1:]))
        if cur is not None:
            view = cur.view.reshape(flat_shape)
            if view.flags.c_contiguous and np.may_share_memory(view, cur.flat):
                return _Act(view, view, 1, cur.arena)
        arena = _other(cur and cur.arena)
        out = take(arena, flat_shape)
        if cur is None:
            steps.append((lambda v, out=out.reshape(shape): np.copyto(out, v), None))
        else:
            steps.append((np.copyto, (out.reshape(shape), cur.view)))
        return _Act(out, out, 1, arena)
