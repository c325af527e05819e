"""Golden tests for the fast im2col/col2im paths.

The production implementations (strided-view gather and slab adds over
channel-major memory, flat ``np.bincount`` scatter-add) are checked
element-for-element against a deliberately naive triple-loop reference,
across asymmetric kernels, strides > 1, zero padding and odd image
shapes, on NCHW inputs and on the channel-major views the engine's
activations are.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor.im2col import (
    COL2IM_BINCOUNT_MAX_SLAB,
    col2im,
    col2im_auto,
    col2im_bincount,
    conv_output_size,
    im2col,
)


def naive_im2col(x, kernel_h, kernel_w, stride, pad):
    """Reference gather: loops only, laid out like the fast path
    (rows ordered (c, kh, kw); columns position-major, image-minor)."""
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    cols = np.empty((c * kernel_h * kernel_w, out_h * out_w * n), dtype=x.dtype)
    for ci in range(c):
        for ki in range(kernel_h):
            for kj in range(kernel_w):
                row = (ci * kernel_h + ki) * kernel_w + kj
                for oh in range(out_h):
                    for ow in range(out_w):
                        for ni in range(n):
                            col = (oh * out_w + ow) * n + ni
                            cols[row, col] = padded[
                                ni, ci, oh * stride + ki, ow * stride + kj
                            ]
    return cols


def naive_col2im(cols, x_shape, kernel_h, kernel_w, stride, pad):
    """Reference scatter-add: the exact adjoint of :func:`naive_im2col`."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel_h, stride, pad)
    out_w = conv_output_size(w, kernel_w, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    for ci in range(c):
        for ki in range(kernel_h):
            for kj in range(kernel_w):
                row = (ci * kernel_h + ki) * kernel_w + kj
                for oh in range(out_h):
                    for ow in range(out_w):
                        for ni in range(n):
                            col = (oh * out_w + ow) * n + ni
                            padded[ni, ci, oh * stride + ki, ow * stride + kj] += cols[
                                row, col
                            ]
    return padded[:, :, pad : h + pad, pad : w + pad]


# (n, c, h, w, kh, kw, stride, pad) — asymmetric kernels, stride > 1,
# pad = 0 and odd shapes are all represented.
CONFIGS = [
    (2, 3, 5, 5, 3, 3, 1, 1),
    (1, 2, 7, 5, 3, 2, 1, 0),  # asymmetric kernel, odd/uneven image
    (2, 1, 9, 9, 2, 4, 1, 2),  # asymmetric kernel, fat padding
    (3, 2, 8, 8, 3, 3, 2, 1),  # stride 2
    (1, 3, 11, 7, 5, 3, 2, 0),  # stride 2, pad 0, odd shape
    (2, 2, 6, 6, 2, 2, 2, 0),  # exact tiling (overlap-free)
    (1, 1, 5, 5, 1, 1, 1, 0),  # pointwise
    (2, 2, 4, 6, 4, 6, 1, 0),  # kernel == image
    (1, 2, 10, 10, 3, 3, 3, 1),  # stride 3
]


@pytest.mark.parametrize("n,c,h,w,kh,kw,stride,pad", CONFIGS)
class TestAgainstNaiveReference:
    def test_im2col_matches(self, rng, n, c, h, w, kh, kw, stride, pad):
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        np.testing.assert_array_equal(
            im2col(x, kh, kw, stride, pad), naive_im2col(x, kh, kw, stride, pad)
        )

    @pytest.mark.parametrize("scatter", [col2im, col2im_bincount, col2im_auto])
    def test_col2im_matches(self, rng, scatter, n, c, h, w, kh, kw, stride, pad):
        out_h = conv_output_size(h, kh, stride, pad)
        out_w = conv_output_size(w, kw, stride, pad)
        cols = rng.standard_normal((c * kh * kw, out_h * out_w * n)).astype(np.float32)
        np.testing.assert_allclose(
            scatter(cols, (n, c, h, w), kh, kw, stride, pad),
            naive_col2im(cols, (n, c, h, w), kh, kw, stride, pad),
            rtol=1e-6,
            atol=1e-6,
        )

    def test_roundtrip_multiplicity(self, rng, n, c, h, w, kh, kw, stride, pad):
        """col2im(im2col(x)) == multiplicity * x, where the per-pixel
        multiplicity is how many receptive fields cover that pixel
        (col2im(im2col(ones)))."""
        x = rng.standard_normal((n, c, h, w))
        ones = np.ones_like(x)
        multiplicity = col2im(
            im2col(ones, kh, kw, stride, pad), ones.shape, kh, kw, stride, pad
        )
        roundtrip = col2im(im2col(x, kh, kw, stride, pad), x.shape, kh, kw, stride, pad)
        np.testing.assert_allclose(roundtrip, multiplicity * x, rtol=1e-10)


class TestOverlapFree:
    @pytest.mark.parametrize(
        "n,c,h,w,kh,kw",
        [(2, 2, 6, 6, 2, 2), (1, 3, 9, 6, 3, 3), (2, 1, 8, 4, 4, 4)],
    )
    def test_roundtrip_is_identity(self, rng, n, c, h, w, kh, kw):
        """stride == kernel (square) and exact tiling: every pixel is
        gathered exactly once, so the roundtrip reproduces x."""
        x = rng.standard_normal((n, c, h, w))
        cols = im2col(x, kh, kw, kh, 0)
        np.testing.assert_array_equal(col2im(cols, x.shape, kh, kw, kh, 0), x)

    def test_preserves_dtype(self, rng):
        x = rng.standard_normal((2, 2, 6, 6)).astype(np.float32)
        cols = im2col(x, 2, 2, 2, 0)
        assert cols.dtype == np.float32
        assert col2im(cols, x.shape, 2, 2, 2, 0).dtype == np.float32


class TestAutoDispatch:
    """col2im_auto must agree with both variants on either side of the
    dispatch threshold — the choice is a pure perf decision."""

    # (n, c, h, w, kh, kw, stride, pad) pinned to each side of
    # COL2IM_BINCOUNT_MAX_SLAB on n*c*out_h*out_w.
    SMALL = (2, 3, 5, 5, 3, 3, 1, 1)  # 2*3*5*5 = 150 <= threshold
    LARGE = (8, 8, 16, 16, 3, 3, 1, 1)  # 8*8*16*16 = 16384 > threshold

    @pytest.mark.parametrize("config", [SMALL, LARGE])
    def test_matches_both_variants(self, rng, config):
        n, c, h, w, kh, kw, stride, pad = config
        out_h = conv_output_size(h, kh, stride, pad)
        out_w = conv_output_size(w, kw, stride, pad)
        cols = rng.standard_normal((c * kh * kw, out_h * out_w * n)).astype(np.float32)
        auto = col2im_auto(cols, (n, c, h, w), kh, kw, stride, pad)
        for variant in (col2im, col2im_bincount):
            np.testing.assert_allclose(
                auto,
                variant(cols, (n, c, h, w), kh, kw, stride, pad),
                rtol=1e-6,
                atol=1e-6,
            )

    @pytest.mark.parametrize("config", [SMALL, LARGE])
    def test_picks_expected_variant(self, rng, config, monkeypatch):
        import repro.tensor.im2col as mod

        n, c, h, w, kh, kw, stride, pad = config
        out_h = conv_output_size(h, kh, stride, pad)
        out_w = conv_output_size(w, kw, stride, pad)
        slab = n * c * out_h * out_w
        expect_bincount = slab <= COL2IM_BINCOUNT_MAX_SLAB
        calls = []
        real_slab, real_bincount = mod.col2im, mod.col2im_bincount
        monkeypatch.setattr(
            mod, "col2im", lambda *a, **k: calls.append("slab") or real_slab(*a, **k)
        )
        monkeypatch.setattr(
            mod,
            "col2im_bincount",
            lambda *a, **k: calls.append("bincount") or real_bincount(*a, **k),
        )
        cols = rng.standard_normal((c * kh * kw, out_h * out_w * n)).astype(np.float32)
        col2im_auto(cols, (n, c, h, w), kh, kw, stride, pad)
        assert calls == (["bincount"] if expect_bincount else ["slab"])


def channel_major(x):
    """The values of ``x`` in (C, H, W, N) memory, viewed as (N, C, H, W):
    the layout the engine's activations live in."""
    return np.ascontiguousarray(x.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


@pytest.mark.parametrize("n,c,h,w,kh,kw,stride,pad", CONFIGS)
class TestChannelMajorInput:
    """Every golden case again, on the channel-major view of the same values."""

    def test_im2col_matches(self, rng, n, c, h, w, kh, kw, stride, pad):
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        np.testing.assert_array_equal(
            im2col(channel_major(x), kh, kw, stride, pad), naive_im2col(x, kh, kw, stride, pad)
        )

    @pytest.mark.parametrize("scatter", [col2im, col2im_bincount, col2im_auto])
    def test_col2im_matches(self, rng, scatter, n, c, h, w, kh, kw, stride, pad):
        x = rng.standard_normal((n, c, h, w)).astype(np.float32)
        cols = im2col(channel_major(x), kh, kw, stride, pad)
        np.testing.assert_allclose(
            scatter(cols, (n, c, h, w), kh, kw, stride, pad),
            naive_col2im(cols, (n, c, h, w), kh, kw, stride, pad),
            rtol=1e-6,
            atol=1e-6,
        )

    def test_col2im_writes_channel_major(self, rng, n, c, h, w, kh, kw, stride, pad):
        out_h = conv_output_size(h, kh, stride, pad)
        out_w = conv_output_size(w, kw, stride, pad)
        cols = rng.standard_normal((c * kh * kw, out_h * out_w * n)).astype(np.float32)
        out = col2im(cols, (n, c, h, w), kh, kw, stride, pad)
        assert out.strides[0] == out.itemsize  # images are the fastest axis

    def test_roundtrip_multiplicity(self, rng, n, c, h, w, kh, kw, stride, pad):
        x = channel_major(rng.standard_normal((n, c, h, w)))
        ones = channel_major(np.ones((n, c, h, w)))
        multiplicity = col2im(
            im2col(ones, kh, kw, stride, pad), ones.shape, kh, kw, stride, pad
        )
        roundtrip = col2im(im2col(x, kh, kw, stride, pad), x.shape, kh, kw, stride, pad)
        np.testing.assert_allclose(roundtrip, multiplicity * x, rtol=1e-10)


class TestChannelMajorOverlapFree:
    @pytest.mark.parametrize(
        "n,c,h,w,kh,kw",
        [(2, 2, 6, 6, 2, 2), (1, 3, 9, 6, 3, 3), (2, 1, 8, 4, 4, 4)],
    )
    def test_roundtrip_is_identity(self, rng, n, c, h, w, kh, kw):
        x = channel_major(rng.standard_normal((n, c, h, w)))
        cols = im2col(x, kh, kw, kh, 0)
        np.testing.assert_array_equal(col2im(cols, x.shape, kh, kw, kh, 0), x)
