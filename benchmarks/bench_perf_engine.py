"""Engine hot-path performance: fast im2col/col2im vs the legacy path.

Times the convolution hot paths twice over identical workloads:

* **legacy** — the pre-optimisation engine, embedded verbatim below:
  per-call index building, fancy-indexing gather, ``np.add.at``
  scatter, float64 compute;
* **fast** — the shipped engine: channel-major (C, H, W, N)
  activations, strided-view gather, per-kernel-offset slab
  accumulation (with the flat ``np.bincount`` scatter also measured),
  float32 compute.

``predict16`` and ``predict1`` are the serving path: ``predict_labels``
on 16 images of 3x16x16 (the async front end's batch) and on one (a
blocking SDK query) through snoek8 and resnet-mini, the two models the
e2e serve workloads deploy. Their fast column is ``predict_labels`` as
shipped: the network's inference workspace where the batch fits it
(``workspace_limit``, per model), else the layer loop; their legacy
column is the NCHW engine the
channel-major layout replaced (``np.pad`` + ``sliding_window_view``
im2col, im2col + ``argmax`` max pooling, ``np.where`` ReLU), embedded
below as well, and ``loop_s`` is the channel-major layer loop the
workspace replaced. ``folded_s`` is what a deployment serves: the pair
with batch norm folded into the convolutions (``workspace.fold``), after
three training forwards have moved the batch-norm statistics off their
initial values. Both columns must return the same labels, the workspace
the layer loop's logits byte for byte, and the folded pair the layer
loop's labels (``fold_same_labels``; ``fold_max_prob_diff`` is the
largest probability difference). Each row also counts the minor page
faults per call (``ru_minflt`` of this process) of the workspace and of
the layer loop.

Every number here is ``wall`` (machine-stamped by the runner, never
gated); the ``simulated`` section names the workload and records that
the predict paths agree. Reference points: conv forward+backward
about 5x the pre-optimisation engine, ``im2col`` about 3x, ``col2im``
and the auto dispatcher (which routes this large workload to the slab
path) above 10x, ``col2im_bincount`` about level with legacy,
``predict16`` and ``predict1`` about 5x the NCHW engine.

Run through the shared runner (see ``_perf.py``)::

    python benchmarks/bench_perf_engine.py [--smoke] [--seed N]
"""

import resource
import sys

import _perf
import numpy as np
from _perf import time_per_call
from numpy.lib.stride_tricks import sliding_window_view

from repro.tensor import Conv2D, MaxPool2D, ReLU, default_dtype, using_dtype
from repro.tensor import layers as layers_module
from repro.tensor.im2col import (
    col2im,
    col2im_auto,
    col2im_bincount,
    conv_output_size,
    im2col,
)
from repro.tensor.losses import softmax
from repro.tensor.workspace import fold
from repro.zoo.builders import BUILDERS

#: CIFAR-ish conv workload: batch 32, 8->16 channels, 16x16 images.
BATCH, CHANNELS, SIZE, FILTERS, KERNEL = 32, 8, 16, 16, 3
#: The serving workload: a batch through the deployed pair, at the async
#: front end's batch size and at one image.
PREDICT_MODELS, PREDICT_BATCHES, PREDICT_IMAGE = ("snoek8", "resnet-mini"), (16, 1), (3, 16, 16)


# ----------------------------------------------------------------------
# The pre-optimisation implementations, embedded so the comparison stays
# reproducible after the legacy code is gone from the engine.
# ----------------------------------------------------------------------


def _legacy_patch_indices(channels, height, width, kernel_h, kernel_w, stride, pad):
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


def legacy_im2col(x, kernel_h, kernel_w, stride, pad):
    n, c, h, w = x.shape
    padded = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)), mode="constant")
    chans, rows, cols, _out_h, _out_w = _legacy_patch_indices(
        c, h, w, kernel_h, kernel_w, stride, pad
    )
    patches = padded[:, chans, rows, cols]
    return patches.transpose(1, 2, 0).reshape(c * kernel_h * kernel_w, -1)


def legacy_col2im(cols, x_shape, kernel_h, kernel_w, stride, pad):
    n, c, h, w = x_shape
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    chans, rows, cols_idx, out_h, out_w = _legacy_patch_indices(
        c, h, w, kernel_h, kernel_w, stride, pad
    )
    reshaped = cols.reshape(c * kernel_h * kernel_w, out_h * out_w, n).transpose(2, 0, 1)
    np.add.at(padded, (slice(None), chans, rows, cols_idx), reshaped)
    if pad == 0:
        return padded
    return padded[:, :, pad:-pad, pad:-pad]


# The NCHW forward kernels of the engine before activations stayed
# channel-major: the predict rows' legacy column.


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


def nchw_maxpool(x, pool, stride):
    n, c, h, w = x.shape
    cols = nchw_im2col(x.reshape(n * c, 1, h, w), pool, pool, stride, 0)
    out = cols[np.argmax(cols, axis=0), np.arange(cols.shape[1])]
    out_h = conv_output_size(h, pool, stride, 0)
    out_w = conv_output_size(w, pool, stride, 0)
    return out.reshape(out_h * out_w, n * c).T.reshape(n, c, out_h, out_w)


def nchw_predict_labels(net, x):
    """``net.predict_labels(x)`` through the NCHW kernels."""
    shipped = layers_module.im2col
    layers_module.im2col = nchw_im2col
    try:
        out = np.asarray(x, dtype=default_dtype())
        for layer in net.layers:
            if isinstance(layer, MaxPool2D):
                out = nchw_maxpool(out, layer.pool_size, layer.stride)
            elif isinstance(layer, ReLU):
                out = np.where(out > 0, out, 0.0)
            else:
                out = layer.forward(out)
        return np.argmax(out, axis=1)
    finally:
        layers_module.im2col = shipped


def conv_step_seconds(dtype, seed: int, repeats: int) -> float:
    """Seconds for one Conv2D forward+backward with the *current* engine."""
    rng = np.random.default_rng(seed)
    with using_dtype(dtype):
        conv = Conv2D(FILTERS, kernel_size=KERNEL, name=f"bench_conv_{dtype.__name__}")
        conv.build((CHANNELS, SIZE, SIZE), rng)
        x = rng.standard_normal((BATCH, CHANNELS, SIZE, SIZE)).astype(dtype)
        out = conv.forward(x, training=True)
        grad = np.ones_like(out)
        return time_per_call(
            lambda: (conv.forward(x, training=True), conv.backward(grad)), repeats
        )


def legacy_conv_step_seconds(seed: int, repeats: int) -> float:
    """Same workload through the embedded legacy kernels in float64."""
    shipped = layers_module.im2col, layers_module.col2im_auto
    layers_module.im2col, layers_module.col2im_auto = legacy_im2col, legacy_col2im
    try:
        return conv_step_seconds(np.float64, seed, repeats)
    finally:
        layers_module.im2col, layers_module.col2im_auto = shipped


def layer_loop(net, x):
    """The logits of ``net``'s layers run one by one, as before the
    inference workspace."""
    out = np.asarray(x, dtype=default_dtype())
    for layer in net.layers:
        out = layer.forward(out)
    return out


def faults_per_call(fn, repeats: int) -> float:
    """Minor page faults of this process per call, over ``repeats`` calls."""
    fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(repeats):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / repeats


def predict(batch: int, seed: int, repeats: int) -> tuple[dict, dict]:
    """Timings and page faults of one ``batch``-image serve call through
    the deployed pair, and its ``simulated`` row: whether the NCHW engine
    labels it the same, whether the forward returns the layer loop's
    logits byte for byte, whether the folded pair labels it as the layer
    loop does and by how much its probabilities differ, and the largest
    batch each network's workspace takes (a larger one runs the layer
    loop)."""
    rng = np.random.default_rng(seed)
    nets = [BUILDERS[name](PREDICT_IMAGE, 10, rng) for name in PREDICT_MODELS]
    x = rng.standard_normal((batch,) + PREDICT_IMAGE).astype(np.float32)
    for net in nets:
        for _ in range(3):
            net.forward(rng.standard_normal((16,) + PREDICT_IMAGE), training=True)
    folded = [fold(net) for net in nets]
    row = {
        "models": list(PREDICT_MODELS), "batch": batch, "image": list(PREDICT_IMAGE),
        "same_labels": all(
            np.array_equal(net.predict_labels(x), nchw_predict_labels(net, x)) for net in nets
        ),
        "same_logits": all(
            net.forward(x).tobytes() == layer_loop(net, x).tobytes() for net in nets
        ),
        "fold_same_labels": all(
            np.array_equal(served.predict_labels(x), np.argmax(layer_loop(net, x), axis=1))
            for net, served in zip(nets, folded)
        ),
        "fold_max_prob_diff": max(
            float(np.abs(served.predict(x) - softmax(layer_loop(net, x))).max())
            for net, served in zip(nets, folded)
        ),
        "workspace_limit": [net._workspace.limit for net in nets],
    }

    def shipped():
        return [net.predict_labels(x) for net in nets]

    def loop():
        return [np.argmax(layer_loop(net, x), axis=1) for net in nets]

    timings = {
        "legacy_s": time_per_call(lambda: [nchw_predict_labels(net, x) for net in nets], repeats),
        "fast_s": time_per_call(shipped, repeats),
        "loop_s": time_per_call(loop, repeats),
        "folded_s": time_per_call(lambda: [net.predict_labels(x) for net in folded], repeats),
        "fast_minflt": faults_per_call(shipped, repeats),
        "loop_minflt": faults_per_call(loop, repeats),
    }
    return timings, row


def run(smoke: bool, seed: int) -> dict:
    repeats = 5 if smoke else 30
    rng = np.random.default_rng(seed)
    served = {f"predict{batch}": predict(batch, seed, repeats) for batch in PREDICT_BATCHES}
    x32 = rng.standard_normal((BATCH, CHANNELS, SIZE, SIZE)).astype(np.float32)
    cols32 = im2col(x32, KERNEL, KERNEL, 1, 1)

    def scatter(fn) -> dict:
        # equal-dtype micro comparisons isolate the algorithmic win
        return {
            "legacy_s": time_per_call(
                lambda: legacy_col2im(cols32, x32.shape, KERNEL, KERNEL, 1, 1), repeats
            ),
            "fast_s": time_per_call(
                lambda: fn(cols32, x32.shape, KERNEL, KERNEL, 1, 1), repeats
            ),
        }

    timings = {
        "im2col": {
            "legacy_s": time_per_call(
                lambda: legacy_im2col(x32, KERNEL, KERNEL, 1, 1), repeats
            ),
            "fast_s": time_per_call(lambda: im2col(x32, KERNEL, KERNEL, 1, 1), repeats),
        },
        "col2im": scatter(col2im),
        "col2im_auto": scatter(col2im_auto),
        "col2im_bincount": scatter(col2im_bincount),
        # end-to-end: old engine (legacy kernels, float64) vs new
        # engine (fast kernels, float32 default)
        "conv_forward_backward": {
            "legacy_s": legacy_conv_step_seconds(seed, repeats),
            "fast_s": conv_step_seconds(np.float32, seed, repeats),
        },
        # serving: NCHW engine vs predict_labels as shipped, both float32
        **{name: timings for name, (timings, _) in served.items()},
    }
    for entry in timings.values():
        entry["speedup"] = entry["legacy_s"] / entry["fast_s"]
        entry["fast_ops_per_s"] = 1.0 / entry["fast_s"]
    return {
        "simulated": {
            "workload": {
                "batch": BATCH, "channels": CHANNELS, "image": SIZE,
                "filters": FILTERS, "kernel": KERNEL, "seed": seed,
            },
            **{name: row for name, (_, row) in served.items()},
        },
        "wall": {"repeats": repeats, "timings": timings},
    }


def table(payload: dict) -> str:
    lines = [f"{'hot path':<24} {'legacy(ms)':>11} {'fast(ms)':>9} {'speedup':>8}"]
    for name, entry in payload["wall"]["timings"].items():
        lines.append(
            f"{name:<24} {1e3 * entry['legacy_s']:>11.3f} "
            f"{1e3 * entry['fast_s']:>9.3f} {entry['speedup']:>7.1f}x"
        )
    for batch in PREDICT_BATCHES:
        name = f"predict{batch}"
        entry, row = payload["wall"]["timings"][name], payload["simulated"][name]
        inside = [
            model for model, limit in zip(row["models"], row["workspace_limit"]) if batch <= limit
        ]
        lines.append(
            f"{name}: layer loop {1e3 * entry['loop_s']:.3f} ms "
            f"({entry['loop_s'] / entry['fast_s']:.2f}x fast, which runs the workspace for "
            f"{', '.join(inside) or 'neither model'}); folded {1e3 * entry['folded_s']:.3f} ms "
            f"(max |dprob| {row['fold_max_prob_diff']:.1e}); minor faults per call "
            f"{entry['fast_minflt']:.1f} fast, {entry['loop_minflt']:.1f} loop"
        )
    return "\n".join(lines)


def check(payload: dict) -> list[str]:
    """The predict paths must agree; the timings are not gated.

    The engine's regression ceilings live in ``tests/test_perf_smoke.py``.
    """
    failures = []
    for batch in PREDICT_BATCHES:
        row = payload["simulated"][f"predict{batch}"]
        if not row["same_labels"]:
            failures.append(
                f"predict{batch}: the channel-major and NCHW engines label the batch differently"
            )
        if not row["same_logits"]:
            failures.append(
                f"predict{batch}: the inference workspace's logits are not the layer loop's bytes"
            )
        if not row["fold_same_labels"]:
            failures.append(
                f"predict{batch}: the folded pair labels the batch differently from the layer loop"
            )
    return failures


if __name__ == "__main__":
    raise SystemExit(_perf.main(sys.modules[__name__]))
