"""im2col / col2im transforms for convolution layers.

Convolutions are implemented as a single matrix multiply over patches
extracted by :func:`im2col`. Gradients flow back through
:func:`col2im`, which scatter-adds patch gradients into the padded
image. Shapes are NCHW at every interface.

Memory is channel-major. ``Conv2D``'s GEMM writes its output as
(F, H, W, N) and hands on the (N, C, H, W) view of it; the kernels here
read and write that (C, H, W, N) memory, so the image index is always
the contiguous axis:

* :func:`im2col` reads ``x.transpose(1, 2, 3, 0)``, a plain view of an
  activation. Padding writes it into a zeroed (C, H+2p, W+2p, N) buffer.
  Patches are one strided view of that buffer (no index arrays, no
  fancy indexing), and the only copy is the reshape into columns, which
  moves runs of N contiguous values;
* :func:`col2im` accumulates one dense strided add per kernel offset
  (``kh*kw`` slab additions, no scatter at all) into a zeroed
  (C, H+2p, W+2p, N) buffer, and returns its (N, C, H, W) view. Each
  output element sees the same float additions in the same (ki, kj)
  order as in any other layout, so the sums do not depend on it;
* a flat :func:`np.bincount` scatter-add over precomputed linear
  indices (:func:`col2im_bincount`, index sets memoised per geometry
  ``(c, h, w, kh, kw, stride, pad)`` with an LRU cache) is the other
  scatter. It accumulates in float64 and rounds once, so its float32
  sums differ from the slab path's in the last bit;
* neither col2im variant wins everywhere: the slab path amortises its
  ``kh*kw`` Python-level loop over large dense adds, while bincount's
  single C-level scatter wins when each slab add is tiny.
  :func:`col2im_auto` — the variant layers actually call — picks by the
  per-offset add size ``n*c*out_h*out_w``
  (:data:`COL2IM_BINCOUNT_MAX_SLAB`).

Operand layout decides rounding. BLAS picks its kernel from the order
of its operands, and NumPy's reductions sum in memory order, so the
same values in a different layout can give a different last bit. The
layers therefore fix the layout wherever a GEMM or a reduction reads an
activation or a gradient (``Flatten`` hands ``Dense`` C order, and
``BatchNorm.backward`` reduces over C order).

Cached index arrays are shared across calls — treat them as read-only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "conv_output_size",
    "im2col",
    "col2im",
    "col2im_auto",
    "col2im_bincount",
    "COL2IM_BINCOUNT_MAX_SLAB",
]

#: Per-kernel-offset slab size (``n*c*out_h*out_w``) at or below which
#: the flat bincount scatter beats the kh*kw strided slab adds.  The
#: slab path's cost is dominated by Python-loop and temporary overhead
#: when each add touches only a few KiB; bincount does one C-level pass
#: regardless of kernel size.  Crossover measured on CPython 3.11 /
#: NumPy 2.4 on a 2-core x86-64 box, 3x3 kernels: bincount wins up to
#: about 1536 elements per offset; at 2048 the two are level within
#: about 20% either way, depending on the geometry; from 4096 up the
#: slab path wins by 1.5-9x.  The threshold stays at 2048: the variants
#: round differently (see above), so moving it changes float32 results.
COL2IM_BINCOUNT_MAX_SLAB = 2048


def conv_output_size(size: int, kernel: int, stride: int, pad: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    return (size + 2 * pad - kernel) // stride + 1


@lru_cache(maxsize=256)
def _patch_indices(
    channels: int, height: int, width: int, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    out_h = conv_output_size(height, kernel_h, stride, pad)
    out_w = conv_output_size(width, kernel_w, stride, pad)

    i0 = np.repeat(np.arange(kernel_h), kernel_w)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kernel_w), kernel_h * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)

    rows = i0.reshape(-1, 1) + i1.reshape(1, -1)
    cols = j0.reshape(-1, 1) + j1.reshape(1, -1)
    chans = np.repeat(np.arange(channels), kernel_h * kernel_w).reshape(-1, 1)
    return chans, rows, cols, out_h, out_w


@lru_cache(maxsize=256)
def _scatter_indices(
    channels: int, height: int, width: int, kernel_h: int, kernel_w: int, stride: int, pad: int
) -> tuple[np.ndarray, int, int]:
    """Flat linear indices into one padded ``(C, H+2p, W+2p)`` image.

    Element order matches ``im2col`` row order (c, kh, kw) crossed with
    output-position order (out_h, out_w).
    """
    chans, rows, cols, out_h, out_w = _patch_indices(
        channels, height, width, kernel_h, kernel_w, stride, pad
    )
    padded_w = width + 2 * pad
    flat = (chans * (height + 2 * pad) + rows) * padded_w + cols
    return np.ascontiguousarray(flat.ravel()), out_h, out_w


def im2col(x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, pad: int) -> np.ndarray:
    """Extract sliding patches from ``x`` (N, C, H, W).

    Returns an array of shape ``(C*kh*kw, out_h*out_w*N)`` whose columns
    are the flattened receptive fields (column order: output position
    major, image index minor).
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    # A plain view for the engine's activations, which already live in
    # (C, H, W, N) memory.
    chwn = padded = x.transpose(1, 2, 3, 0)
    if pad > 0:
        padded = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
        padded[:, pad : pad + h, pad : pad + w] = chwn
    s_c, s_h, s_w, s_n = padded.strides
    # (C, kh, kw, out_h, out_w, N) as a view; the reshape materialises
    # the columns in (c*kh*kw, out_pos*N) layout.
    windows = as_strided(
        padded,
        (c, kernel_h, kernel_w, out_h, out_w, n),
        (s_c, s_h, s_w, stride * s_h, stride * s_w, s_n),
        writeable=False,
    )
    return windows.reshape(c * kernel_h * kernel_w, -1)


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Inverse of :func:`im2col`: scatter-add patch columns back to images.

    Within one kernel offset ``(ki, kj)`` the receptive fields never
    collide, so the scatter decomposes into ``kh*kw`` dense strided
    additions — no atomics, no index arrays, native dtype throughout.
    The sums build up in a (C, H+2p, W+2p, N) buffer; the result is its
    (N, C, H, W) view.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    patches = cols.reshape(c, kernel_h, kernel_w, out_h, out_w, n)
    padded = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=cols.dtype)
    for ki in range(kernel_h):
        rows = slice(ki, ki + stride * out_h, stride)
        for kj in range(kernel_w):
            padded[:, rows, kj : kj + stride * out_w : stride] += patches[:, ki, kj]
    return padded[:, pad : pad + h, pad : pad + w].transpose(3, 0, 1, 2)


def col2im_auto(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """:func:`col2im` dispatching on measured workload shape.

    Uses the bincount scatter when each kernel offset's dense add would
    be at most :data:`COL2IM_BINCOUNT_MAX_SLAB` elements (small images
    or tiny batches, where the slab loop's per-iteration overhead
    dominates), and the slab path otherwise.  Both variants are the
    adjoint of :func:`im2col`; in float32 they may differ in the last
    bit where three or more patches overlap, so the threshold is part of
    the engine's numerics, not only its speed.
    """
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    if n * c * out_h * out_w <= COL2IM_BINCOUNT_MAX_SLAB:
        return col2im_bincount(cols, x_shape, kernel_h, kernel_w, stride, pad)
    return col2im(cols, x_shape, kernel_h, kernel_w, stride, pad)


def col2im_bincount(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """:func:`col2im` via one flat ``np.bincount`` scatter-add."""
    n, c, h, w = x_shape
    flat_idx, out_h, out_w = _scatter_indices(c, h, w, kernel_h, kernel_w, stride, pad)
    image_size = c * (h + 2 * pad) * (w + 2 * pad)
    # Column index is position-major then image: bring values into
    # (N, c*kh*kw * out_pos) order so they line up with flat_idx.
    values = (
        cols.reshape(c * kernel_h * kernel_w, out_h * out_w, n)
        .transpose(2, 0, 1)
        .reshape(n, -1)
    )
    offsets = (np.arange(n, dtype=flat_idx.dtype) * image_size).reshape(-1, 1)
    indices = flat_idx + offsets
    summed = np.bincount(
        indices.ravel(), weights=values.ravel(), minlength=n * image_size
    )
    padded = summed.reshape(n, c, h + 2 * pad, w + 2 * pad).astype(cols.dtype, copy=False)
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]
