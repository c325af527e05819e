"""Buffer-aliasing guarantees of the training hot loop.

The engine promises that parameter, gradient and running-stat arrays
are allocated once at build time and then only ever written *in place*
(``arr[...] = ...``, ``+=``): ``zero_grads``, ``backward`` and
``optimizer.step`` must never rebind a dict entry to a fresh array.
External references — the parameter server's zero-copy views, warm
starts, these tests — rely on that aliasing staying intact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import (
    SGD,
    Adam,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    SoftmaxCrossEntropy,
)


def build_net(rng) -> Network:
    net = Network(
        [
            Conv2D(4, kernel_size=3, name="conv"),
            BatchNorm(name="bn"),
            ReLU(name="relu"),
            MaxPool2D(name="pool"),
            Flatten(name="flat"),
            Dropout(name="drop"),
            Dense(3, name="out"),
        ]
    )
    return net.build((2, 8, 8), rng)


def array_ids(mapping: dict[str, np.ndarray]) -> dict[str, int]:
    return {name: id(arr) for name, arr in mapping.items()}


def train_steps(net: Network, optimizer, rng, steps: int = 3) -> None:
    loss = SoftmaxCrossEntropy()
    x = rng.standard_normal((6, 2, 8, 8))
    y = rng.integers(0, 3, size=6)
    for _ in range(steps):
        net.zero_grads()
        logits = net.forward(x, training=True)
        loss.forward(logits, y)
        net.backward(loss.backward())
        optimizer.step(net.params, net.grads)


@pytest.mark.parametrize(
    "make_optimizer",
    [
        lambda: SGD(lr=0.01, momentum=0.9, weight_decay=1e-4),
        lambda: SGD(lr=0.01),
        lambda: Adam(lr=0.001),
    ],
    ids=["sgd-momentum", "sgd-plain", "adam"],
)
def test_training_never_rebinds_arrays(rng, make_optimizer):
    net = build_net(rng)
    param_ids = array_ids(net.params)
    grad_ids = array_ids(net.grads)
    buffer_ids = array_ids(net.buffers)

    train_steps(net, make_optimizer(), rng)

    assert array_ids(net.params) == param_ids
    assert array_ids(net.grads) == grad_ids
    assert array_ids(net.buffers) == buffer_ids


def test_zero_grads_writes_in_place(rng):
    net = build_net(rng)
    optimizer = SGD(lr=0.01)
    train_steps(net, optimizer, rng, steps=1)
    grad_ids = array_ids(net.grads)
    net.zero_grads()
    assert array_ids(net.grads) == grad_ids
    for grad in net.grads.values():
        np.testing.assert_array_equal(grad, 0.0)


def test_batchnorm_running_stats_update_in_place(rng):
    bn = BatchNorm(name="bn")
    bn.build((5,), rng)
    mean, var = bn.buffers["running_mean"], bn.buffers["running_var"]
    before = mean.copy()
    bn.forward(rng.standard_normal((16, 5)), training=True)
    assert bn.buffers["running_mean"] is mean
    assert bn.buffers["running_var"] is var
    assert not np.array_equal(mean, before)  # and they really moved


def test_external_references_track_updates(rng):
    """A live view taken before training observes every update — the
    property the parameter server's zero-copy reads depend on."""
    net = build_net(rng)
    view = net.params["conv/W"]
    before = view.copy()
    train_steps(net, SGD(lr=0.05, momentum=0.9), rng, steps=2)
    assert net.params["conv/W"] is view
    assert not np.array_equal(view, before)
