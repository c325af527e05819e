"""The inference workspace against the layer loop it replaces.

``Network.forward(x, training=False)`` (and ``predict``,
``predict_labels``, ``evaluate``) runs through buffers the network keeps
between calls. The layer loop stays the oracle: every answer must be its
bytes, whatever batch sizes came before, whatever the caller did to an
earlier answer, and whatever rewrote the parameters in place since.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.tensor import SGD, Layer, Network, SoftmaxCrossEntropy, default_dtype, using_dtype
from repro.tensor.losses import softmax
from repro.tensor.workspace import _arena
from repro.zoo.builders import BUILDERS
from test_engine_layout import build_strided
from test_tensor_network import _retained_bytes

NETS = {**BUILDERS, "strided": build_strided}
SHAPE = (3, 16, 16)
CLASSES = 10


def layer_loop(net: Network, x: np.ndarray) -> np.ndarray:
    out = np.asarray(x, dtype=default_dtype())
    for layer in net.layers:
        out = layer.forward(out, training=False)
    return out


def assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), f"max |diff| {np.abs(got - want).max()}"


def assert_answers(net: Network, x: np.ndarray) -> None:
    """forward, predict and predict_labels are the layer loop's bytes."""
    want = layer_loop(net, x)
    assert_same(net.forward(x), want)
    assert_same(net.predict(x), softmax(want))
    assert_same(net.predict_labels(x), np.argmax(want, axis=1))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("name", sorted(NETS))
def test_every_batch_size_is_the_layer_loop(name, dtype):
    rng = np.random.default_rng(5)
    with using_dtype(dtype):
        net = NETS[name](SHAPE, CLASSES, rng)
        net.predict_labels(rng.standard_normal((1,) + SHAPE))
        limit = net._workspace.limit
        # Shrink, then grow past what the workspace keeps.
        batches = (16, 5, 1, 0, 64, limit, limit + 1, 5)
        for batch in batches:
            assert_answers(net, rng.standard_normal((batch,) + SHAPE).astype(dtype))
        assert net._workspace.capacity == max(b for b in batches if b <= limit)


def test_a_mutated_answer_does_not_leak_into_the_next():
    rng = np.random.default_rng(6)
    net = BUILDERS["resnet-mini"](SHAPE, CLASSES, rng)
    x = rng.standard_normal((4,) + SHAPE).astype(np.float32)
    for answer in (net.forward(x), net.predict(x), net.predict_labels(x)):
        answer[...] = 7
        assert_answers(net, x)


@pytest.mark.parametrize("name", ["snoek8", "resnet-mini"])
def test_a_redeploy_in_place_is_seen_by_the_next_call(name):
    rng = np.random.default_rng(7)
    net, other = (BUILDERS[name](SHAPE, CLASSES, rng) for _ in range(2))
    x = rng.standard_normal((16,) + SHAPE).astype(np.float32)
    before = net.forward(x)
    net.warm_start(other.state_dict())
    assert not np.array_equal(net.forward(x), before)
    assert_answers(net, x)
    net.load_state_dict(BUILDERS[name](SHAPE, CLASSES, rng).state_dict())
    assert_answers(net, x)


def test_a_training_step_moves_the_batch_norm_statistics_it_reads():
    rng = np.random.default_rng(8)
    net = BUILDERS["resnet-mini"](SHAPE, CLASSES, rng)
    x = rng.standard_normal((16,) + SHAPE).astype(np.float32)
    assert_answers(net, x)
    running = net.buffers["resnet-mini/bn1/running_mean"].copy()
    loss = SoftmaxCrossEntropy()
    loss.forward(net.forward(x, training=True), rng.integers(0, CLASSES, 16))
    net.backward(loss.backward())
    SGD(lr=0.1).step(net.params, net.grads)
    assert not np.array_equal(net.buffers["resnet-mini/bn1/running_mean"], running)
    assert_answers(net, x)


def test_a_replaced_parameter_array_builds_a_new_workspace():
    rng = np.random.default_rng(9)
    net = BUILDERS["vgg-mini"](SHAPE, CLASSES, rng)
    x = rng.standard_normal((3,) + SHAPE).astype(np.float32)
    net.forward(x)
    fc = net.layers[-1]
    fc.params["W"] = fc.params["W"] * 2
    assert_answers(net, x)


def test_a_copy_builds_its_own_workspace():
    rng = np.random.default_rng(10)
    net = BUILDERS["squeeze-mini"](SHAPE, CLASSES, rng)
    x = rng.standard_normal((2,) + SHAPE).astype(np.float32)
    before = net.forward(x)
    twin = copy.deepcopy(net)
    assert twin._workspace is None
    for value in twin.params.values():
        value[...] = 0.5
    assert_same(net.forward(x), before)
    assert_answers(twin, x)


class _Reenter(Layer):
    """A layer that, while ``box`` holds a network and an input, runs that
    network on it from inside a forward."""

    def __init__(self, box: list):
        super().__init__("reenter")
        self.box = box

    def forward(self, x, training=False):
        if self.box:
            network, x_in = self.box
            network.forward(x_in)
        return x


def test_two_forwards_at_once_are_refused():
    from repro.tensor import Dense, Flatten, ReLU

    rng = np.random.default_rng(11)
    box: list = []
    net = Network(
        [Flatten(name="f"), Dense(4, name="d"), ReLU(name="r"), _Reenter(box)]
    ).build((3, 4, 4), rng)
    x = rng.standard_normal((2, 3, 4, 4))
    box += [net, x]
    with pytest.raises(RuntimeError, match="two forwards at once"):
        net.forward(x)
    # The refusal leaves the workspace usable.
    workspace = net._workspace
    box.clear()
    assert_answers(net, x)
    assert net._workspace is workspace


def test_a_network_too_large_for_one_image_keeps_no_buffer():
    rng = np.random.default_rng(12)
    # One 3x80x80 image needs 2.9 MB of snoek8 buffers (3x64x64: 1.8 MB).
    net = BUILDERS["snoek8"]((3, 80, 80), CLASSES, rng)
    x = rng.standard_normal((1, 3, 80, 80)).astype(np.float32)
    before, arena = _retained_bytes(net), _arena.buffer
    assert_answers(net, x)
    assert net._workspace.limit == 0 and _retained_bytes(net) == before
    assert _arena.buffer is arena and net._workspace not in _arena.plans
