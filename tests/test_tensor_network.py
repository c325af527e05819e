"""Tests for the Network container: params, warm start, serialisation."""

import gc
import types

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.tensor import Conv2D, Dense, Flatten, Network, ReLU


def make_net(rng, name="net", units=(6, 3)):
    return Network(
        [Dense(units[0], name="d1"), ReLU(name="r"), Dense(units[1], name="d2")],
        name=name,
    ).build((4,), rng)


class TestConstruction:
    def test_duplicate_layer_names_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="duplicate"):
            Network([Dense(3, name="d"), Dense(3, name="d")])

    def test_forward_before_build_rejected(self, rng):
        net = Network([Dense(3, name="d")])
        with pytest.raises(ConfigurationError, match="not built"):
            net.forward(np.zeros((1, 4)))

    def test_output_shape_propagates(self, rng):
        net = Network(
            [Conv2D(4, 3, name="c"), Flatten(name="f"), Dense(2, name="d")]
        ).build((3, 8, 8), rng)
        assert net.output_shape == (2,)

    def test_param_count(self, rng):
        net = make_net(rng)
        # d1: 4*6+6, d2: 6*3+3
        assert net.param_count() == 4 * 6 + 6 + 6 * 3 + 3


class TestParams:
    def test_params_are_live_views(self, rng):
        net = make_net(rng)
        net.params["d1/W"][...] = 0.0
        assert np.all(net.params["d1/W"] == 0.0)

    def test_state_dict_is_a_copy(self, rng):
        net = make_net(rng)
        state = net.state_dict()
        state["d1/W"][...] = 99.0
        assert not np.any(net.params["d1/W"] == 99.0)

    def test_load_state_dict_roundtrip(self, rng):
        a = make_net(rng, "a")
        b = make_net(rng, "b")
        b.load_state_dict(a.state_dict())
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(a.forward(x), b.forward(x))

    def test_load_missing_key_strict(self, rng):
        net = make_net(rng)
        state = net.state_dict()
        del state["d1/W"]
        with pytest.raises(ConfigurationError, match="missing"):
            net.load_state_dict(state)

    def test_load_shape_mismatch(self, rng):
        net = make_net(rng)
        state = net.state_dict()
        state["d1/W"] = np.zeros((2, 2))
        with pytest.raises(ConfigurationError, match="shape"):
            net.load_state_dict(state)


class TestWarmStart:
    def test_exact_architecture_transfers_everything(self, rng):
        a = make_net(rng, "a")
        b = make_net(rng, "b")
        loaded = b.warm_start(a.state_dict())
        assert sorted(loaded) == sorted(b.params)
        x = rng.normal(size=(2, 4))
        np.testing.assert_allclose(a.forward(x), b.forward(x))

    def test_partial_shape_match(self, rng):
        """Only same-shape layers transfer across different architectures.

        This is the Section 4.2.2 rule: ConvNet a's layer initialises
        ConvNet b's layer when their shapes agree.
        """
        a = make_net(rng, "a", units=(6, 3))
        b = make_net(rng, "b", units=(6, 5))  # d2 differs
        loaded = b.warm_start(a.state_dict())
        assert "d1/W" in loaded and "d1/b" in loaded
        assert "d2/W" not in loaded
        np.testing.assert_allclose(b.params["d1/W"], a.params["d1/W"])

    def test_no_match_loads_nothing(self, rng):
        a = make_net(rng, "a")
        b = Network([Dense(9, name="z")], name="b").build((7,), rng)
        assert b.warm_start(a.state_dict()) == []

    def test_pool_not_reused_twice(self, rng):
        """Each checkpoint array initialises at most one parameter."""
        a = Network([Dense(4, name="d1")], name="a").build((4,), rng)
        b = Network(
            [Dense(4, name="d1"), ReLU(name="r"), Dense(4, name="d2")], name="b"
        ).build((4,), rng)
        loaded = b.warm_start(a.state_dict())
        # a has one (4,4) matrix; b has two. Only one may be initialised.
        assert sum(1 for name in loaded if name.endswith("/W")) == 1


class TestPredict:
    def test_probabilities_sum_to_one(self, rng):
        net = make_net(rng)
        probs = net.predict(rng.normal(size=(5, 4)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)

    def test_labels_match_argmax(self, rng):
        net = make_net(rng)
        x = rng.normal(size=(5, 4))
        np.testing.assert_array_equal(
            net.predict_labels(x), np.argmax(net.predict(x), axis=1)
        )


class TestBuffers:
    """Batch-norm running statistics travel with the state dict."""

    def _bn_net(self, rng, name="net"):
        from repro.tensor import BatchNorm

        return Network(
            [Dense(4, name="d"), BatchNorm(name="bn")], name=name
        ).build((4,), rng)

    def test_state_dict_includes_running_stats(self, rng):
        net = self._bn_net(rng)
        state = net.state_dict()
        assert "bn/running_mean" in state
        assert "bn/running_var" in state

    def test_running_stats_survive_roundtrip(self, rng):
        a = self._bn_net(rng, "a")
        x = rng.normal(3.0, 2.0, size=(64, 4))
        a.forward(x, training=True)  # updates running stats
        b = self._bn_net(rng, "b")
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a.forward(x), b.forward(x))

    def test_warm_start_carries_running_stats(self, rng):
        a = self._bn_net(rng, "a")
        a.forward(rng.normal(5.0, 1.0, size=(32, 4)), training=True)
        b = self._bn_net(rng, "b")
        loaded = b.warm_start(a.state_dict())
        assert "bn/running_mean" in loaded
        np.testing.assert_allclose(b.buffers["bn/running_mean"],
                                   a.buffers["bn/running_mean"])

    def test_buffers_never_match_weights(self, rng):
        """A (C,)-shaped running stat must not initialise a (C,) bias."""
        a = self._bn_net(rng, "a")
        a.forward(rng.normal(50.0, 1.0, size=(32, 4)), training=True)
        plain = Network([Dense(4, name="d")], name="p").build((4,), rng)
        before = plain.params["d/b"].copy()
        state = {k: v for k, v in a.state_dict().items() if "running" in k}
        loaded = plain.warm_start(state)
        assert loaded == []
        np.testing.assert_allclose(plain.params["d/b"], before)


def _net(name, rng):
    from repro.tensor import Sigmoid
    from repro.zoo.builders import BUILDERS

    if name == "sigmoid":  # the activation no zoo builder uses
        return Network(
            [Flatten(name="f"), Dense(8, name="d1"), Sigmoid(name="t"),
             Dense(5, name="d2"), Sigmoid(name="s")]
        ).build((3, 8, 8), rng)
    return BUILDERS[name]((3, 8, 8), 5, rng)


NETS = ["snoek8", "vgg-mini", "resnet-mini", "squeeze-mini", "mlp", "sigmoid"]


def _retained_bytes(net) -> int:
    """Bytes of array memory the network reaches outside its parameters,
    gradients and buffers: a walk of its object graph (stopping at
    modules, classes and functions' globals), each byte counted once
    however many views reach it."""
    try:
        from numpy.lib.array_utils import byte_bounds
    except ImportError:  # NumPy < 2
        byte_bounds = np.byte_bounds

    owned = [byte_bounds(a) for layer in net.layers
             for group in (layer.params, layer.grads, layer.buffers) for a in group.values()]
    seen, spans, stack = set(), [], [net]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            low, high = byte_bounds(obj)
            if not any(lo <= low and high <= hi for lo, hi in owned):
                spans.append((low, high))
        elif isinstance(obj, types.FunctionType):
            stack += [*(obj.__closure__ or ()), *(obj.__defaults__ or ())]
        else:
            stack += gc.get_referents(obj)
    total, end = 0, None
    for low, high in sorted(spans):
        start = low if end is None else max(low, end)
        total += max(high - start, 0)
        end = high if end is None else max(end, high)
    return total


class TestZeroRowBatch:
    """An empty batch is a valid batch: no rows in, no rows out."""

    @pytest.mark.parametrize("name", NETS)
    def test_forward_and_labels(self, rng, name):
        net = _net(name, rng)
        x = np.empty((0, 3, 8, 8))
        assert net.forward(x).shape == (0, 5)
        labels = net.predict_labels(x)
        assert labels.shape == (0,)
        assert np.issubdtype(labels.dtype, np.integer)


class TestEvalKeepsNoBackwardState:
    """A serving forward (``training=False``) keeps no activation, so a
    deployed replica holds its parameters plus at most
    ``WORKSPACE_BYTES`` of inference workspace between batches, and
    ``backward`` after it fails instead of using a stale cache."""

    @pytest.mark.parametrize("name", NETS)
    def test_predict_drops_training_caches(self, rng, name):
        from repro.tensor import SoftmaxCrossEntropy
        from repro.tensor.workspace import WORKSPACE_BYTES

        net = _net(name, rng)
        x = rng.normal(size=(4, 3, 8, 8))
        loss = SoftmaxCrossEntropy()
        loss.forward(net.forward(x, training=True), np.arange(4) % 5)
        net.backward(loss.backward())
        net.predict_labels(x)
        for layer in net.layers:
            owned = {id(a) for group in (layer.params, layer.grads, layer.buffers)
                     for a in group.values()}
            for attr, value in vars(layer).items():
                if isinstance(value, np.ndarray):
                    assert id(value) in owned, f"{layer.name}.{attr} kept an array"
        assert 0 < _retained_bytes(net) <= WORKSPACE_BYTES
        with pytest.raises(AssertionError, match="training-mode forward"):
            net.backward(np.ones((4, 5), dtype=np.float32))
