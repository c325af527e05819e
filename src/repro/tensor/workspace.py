"""The inference workspace: a network's ``training=False`` forward over
buffers kept between calls.

``Network.forward(x, training=False)`` runs here, and with it
``predict``, ``predict_labels`` and ``evaluate``. A workspace serves one
sample shape and dtype, and every batch size up to its ``limit``.
For each batch size it builds, once, a list of steps over views of
buffers:

* a convolution copies its input into the interior of a padded buffer
  (images innermost, laid out for the batch size) whose zero border is
  written when the batch size changes, copies the patches into the
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
the layout. Every buffer but the padded inputs is a C-ordered run of a
flat arena, cache-line aligned, as the layer loop's fresh arrays are
C-ordered, and views are taken with the layer loop's own expressions.
The one rewritten reduction is the global ``AvgPool2D``: the layer
loop's ``cols.mean(axis=0)`` runs on a view whose reduced axis is
contiguous, so NumPy sums each window pairwise; the workspace reduces a
C-ordered ``(N*C, H*W)`` copy along axis 1, which sums the same way.

**Memory.** Steps run one after another, and two forwards never overlap
on one thread, so every network run on a thread borrows that thread's
one arena: a run for the columns of every convolution and two that take
turns holding each step's output. The steps are kept with the arena too,
per workspace and batch size, and an arena that has to grow drops every
plan built over it. The network keeps only its padded inputs, whose
borders must stay zero, and its batch-norm scratch, sized for the
largest batch it has run. A batch whose buffers, arena runs and kept
ones together, would exceed :data:`WORKSPACE_BYTES` runs the layer loop,
so no thread's arena exceeds it. (Built afresh for one call and dropped
after it, the same steps ran 1.5x slower than the layer loop on 64
images of snoek8 and resnet-mini, and their buffers, all live at once,
peak above the layer loop's.) No buffer leaves: the answer is a copy. A
forward that starts while another network's runs on the same thread (a
layer that runs a network) takes the layer loop.

Parameters are read live. The steps hold views of the parameter arrays,
which every writer (optimisers, ``load_state_dict``, ``warm_start``,
batch-norm statistics, :func:`fold`) updates in place; a parameter
array replaced in its layer's dict makes the network build a new
workspace.

**The fold.** :func:`fold` gives the network a deployed model serves
through: each ``BatchNorm`` directly after a ``Conv2D`` or ``Dense`` is
folded into that layer's weights and bias, so its steps are gone. The
trained network stays the record, and training and its evaluation
never see the folded one: folding reorders float arithmetic, so the
folded answers match the layer loop's labels, not its bytes.
"""

from __future__ import annotations

import copy
import math
import sys
import threading
import weakref
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

__all__ = ["WORKSPACE_BYTES", "Workspace", "fold"]

#: Buffer bytes one inference forward may use: a thread's arena plus the
#: running network's kept buffers. A batch whose buffers would need more
#: runs the layer loop. 2 MiB holds a 16-image batch (the async front
#: end's) of every zoo ConvNet at 3x16x16: snoek8 needs 1.93 MB.
WORKSPACE_BYTES = 2 << 20

#: Each arena run starts on a 64-byte boundary.
_ALIGN = 64


class _Arena(threading.local):
    """One thread's flat buffer, which the steps of every workspace run on
    the thread borrow, and those steps by workspace and batch size."""

    def __init__(self):
        self.buffer = np.empty(0, np.uint8)
        self.plans: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.running = False


_arena = _Arena()


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
    """The inference steps of one network for inputs of ``sample_shape``
    and ``dtype``, and the buffers the network keeps for them.

    It keeps buffers for the largest batch it has run, and takes no
    batch above ``limit``, the largest whose buffers fit in
    :data:`WORKSPACE_BYTES`.
    """

    def __init__(self, layers: list[Layer], sample_shape: tuple[int, ...], dtype):
        self.layers = list(layers)
        self.sample_shape = tuple(sample_shape)
        self.dtype = np.dtype(dtype)
        self.capacity = -1  # no buffers until the first batch
        self._kept: dict = {}
        self._bordered = -1  # the batch size the padded inputs' zeros are laid out for
        self._busy = False
        # Every buffer but the batch-norm scratch grows with the batch,
        # linearly from two images up (one image may flatten in place);
        # aligning the arena's runs adds at most 3 * _ALIGN bytes.
        two = self._bytes(2)
        per_image = (self._bytes(4) - two) // 2
        budget = WORKSPACE_BYTES - 3 * _ALIGN
        self.limit = (budget - two + 2 * per_image) // per_image if per_image else sys.maxsize

    def holds(self, layers: list[Layer], x: np.ndarray) -> bool:
        """Whether this workspace runs ``x`` through ``layers`` as they are now."""
        if x.shape[1:] != self.sample_shape or x.dtype != self.dtype or layers != self.layers:
            return False
        for owner, key, array in self._live:
            if owner.get(key) is not array:
                return False
        return True

    def _sizes(self, n: int) -> tuple[dict, dict]:
        """The elements each kept buffer and each arena run needs for an
        ``n``-image batch; sets the parameters the steps read."""
        kept: dict = {}
        runs: dict = {}

        def measure(slot, shape):
            sizes = runs if isinstance(slot, str) else kept
            sizes[slot] = max(sizes.get(slot, 0), math.prod(shape))
            return np.empty(shape, self.dtype)  # never written

        self._live = self._build(n, measure)[2]
        return kept, runs

    def _bytes(self, n: int) -> int:
        kept, runs = self._sizes(n)
        return (sum(kept.values()) + sum(runs.values())) * self.dtype.itemsize

    def _grow(self, capacity: int) -> None:
        kept, _ = self._sizes(capacity)
        self._kept = {slot: np.empty(size, self.dtype) for slot, size in kept.items()}
        self.capacity = capacity
        self._bordered = -1

    def _border(self, n: int) -> None:
        """Zero the padded inputs as laid out for ``n`` images; each call
        then writes only their interiors."""
        for slot, buffer in self._kept.items():
            if slot[0] == "pad":
                buffer[: math.prod(slot[1:4]) * n] = 0
        self._bordered = n

    def run(self, x: np.ndarray) -> np.ndarray:
        """The layer loop's ``training=False`` output for ``x``, as a new array."""
        if self._busy:
            raise RuntimeError(
                "a network's inference workspace is already running: one network "
                "must not run two forwards at once"
            )
        if _arena.running:
            for layer in self.layers:
                x = layer.forward(x, training=False)
            return x
        self._busy = _arena.running = True
        try:
            n = x.shape[0]
            if n > self.capacity:
                self._grow(n)
            if n != self._bordered:
                self._border(n)
            plan = _arena.plans.get(self, {}).get(n)
            if plan is None or plan[0] != self.capacity:
                plan = self._plan(n)
            _, steps, out = plan
            value = x
            for fn, args in steps:
                if args is None:
                    value = fn(value)
                else:
                    fn(*args)
            if out is not None:
                return out.copy(order="K")
            if any(np.may_share_memory(value, buffer)
                   for buffer in (_arena.buffer, *self._kept.values())):
                return value.copy(order="K")
            return value
        finally:
            self._busy = _arena.running = False

    def _plan(self, n: int) -> tuple:
        """Build, and keep with this thread's arena, the steps for an
        ``n``-image batch over the kept buffers and the arena."""
        _, runs = self._sizes(n)
        offsets, end = {}, 0
        for slot, size in runs.items():
            offsets[slot] = end
            end += -(-size * self.dtype.itemsize // _ALIGN) * _ALIGN
        if end > _arena.buffer.nbytes:
            # Every plan on this thread reads the buffer being replaced.
            _arena.buffer = np.empty(end, np.uint8)
            _arena.plans.clear()
        buffer = _arena.buffer

        def take(slot, shape):
            """``shape`` out of ``slot``: a C-ordered prefix of a kept buffer
            or of an arena run."""
            size = math.prod(shape)
            if slot in offsets:
                start = offsets[slot]
                run = buffer[start : start + size * self.dtype.itemsize].view(self.dtype)
            else:
                run = self._kept[slot][:size]
            return run.reshape(shape)

        steps, out, _ = self._build(n, take)
        plan = _arena.plans.setdefault(self, {})[n] = (self.capacity, steps, out)
        return plan

    # ------------------------------------------------------------------
    # building the steps
    # ------------------------------------------------------------------

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


def fold(record, served=None):
    """The network ``record`` serves as, with each ``BatchNorm`` directly
    after a ``Conv2D`` or ``Dense`` folded into that layer's weights and
    bias; given the ``served`` network an earlier call returned, the fold
    is written into its arrays in place instead.

    The served network shares every other layer, parameters and all, with
    ``record``; with nothing to fold it is ``record``. The fold is taken
    in float64 from the record's statistics as they are now:
    ``W * gamma / sqrt(var + eps)`` and ``(b - mean) * gamma / sqrt(var +
    eps) + beta`` per output channel.
    """
    layers, source = [], record.layers
    i = 0
    while i < len(source):
        layer = source[i]
        norm = source[i + 1] if i + 1 < len(source) else None
        if type(layer) not in (Conv2D, Dense) or type(norm) is not BatchNorm:
            layers.append(layer)
            i += 1
            continue
        if served is None:
            target = copy.copy(layer)
            for attr in layer.saved_for_backward:
                setattr(target, attr, None)
            target.params = {key: np.empty_like(value) for key, value in layer.params.items()}
            target.grads = {}
        else:
            target = served.layers[len(layers)]
        scale = norm.params["gamma"].astype(np.float64) / np.sqrt(
            norm.running_var.astype(np.float64) + norm.eps
        )
        # A Conv2D's output channels are its weights' first axis, a Dense's its last.
        axis = 0 if type(layer) is Conv2D else -1
        shape = [1] * layer.params["W"].ndim
        shape[axis] = -1
        target.params["W"][...] = layer.params["W"] * scale.reshape(shape)
        target.params["b"][...] = (
            (layer.params["b"] - norm.running_mean.astype(np.float64)) * scale
            + norm.params["beta"]
        )
        layers.append(target)
        i += 2
    if served is not None:
        return served
    if len(layers) == len(source):
        return record
    served = type(record)(layers, name=record.name)
    served.input_shape, served.output_shape = record.input_shape, record.output_shape
    return served
