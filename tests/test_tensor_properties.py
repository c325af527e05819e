"""Property tests over randomly assembled networks.

Builds random (but valid) layer stacks and checks the engine's
structural invariants: declared output shapes match actual outputs,
backward returns input-shaped finite gradients, and every parameter
receives a finite gradient.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import (
    BatchNorm,
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    Sigmoid,
    SoftmaxCrossEntropy,
)


def build_random_net(rng: np.random.Generator, conv_blocks: int, hidden: int,
                     with_bn: bool, activation: str) -> Network:
    acts = {"relu": ReLU, "sigmoid": Sigmoid}
    layers = []
    for i in range(conv_blocks):
        layers.append(Conv2D(2 + i, 3, name=f"c{i}"))
        if with_bn:
            layers.append(BatchNorm(name=f"bn{i}"))
        layers.append(acts[activation](name=f"a{i}"))
        layers.append(MaxPool2D(2, name=f"p{i}"))
    layers.append(Flatten(name="flat"))
    layers.append(Dense(hidden, name="fc1"))
    layers.append(acts[activation](name="afc"))
    layers.append(Dense(3, name="out"))
    return Network(layers).build((2, 8, 8), rng)


@st.composite
def net_specs(draw):
    return (
        draw(st.integers(0, 2)),  # conv blocks (8x8 halves at most twice)
        draw(st.integers(2, 16)),  # hidden units
        draw(st.booleans()),  # batch norm
        draw(st.sampled_from(["relu", "sigmoid"])),
        draw(st.integers(0, 10_000)),  # seed
    )


class TestRandomArchitectures:
    @settings(max_examples=20, deadline=None)
    @given(net_specs())
    def test_forward_matches_declared_shape(self, spec):
        blocks, hidden, with_bn, activation, seed = spec
        rng = np.random.default_rng(seed)
        net = build_random_net(rng, blocks, hidden, with_bn, activation)
        x = rng.normal(size=(4, 2, 8, 8))
        out = net.forward(x)
        assert out.shape == (4, *net.output_shape)
        assert np.all(np.isfinite(out))

    @settings(max_examples=15, deadline=None)
    @given(net_specs())
    def test_backward_shapes_and_finiteness(self, spec):
        blocks, hidden, with_bn, activation, seed = spec
        rng = np.random.default_rng(seed)
        net = build_random_net(rng, blocks, hidden, with_bn, activation)
        x = rng.normal(size=(5, 2, 8, 8))
        y = rng.integers(0, 3, size=5)
        loss = SoftmaxCrossEntropy()
        net.zero_grads()
        loss.forward(net.forward(x, training=True), y)
        grad_x = net.backward(loss.backward())
        assert grad_x.shape == x.shape
        assert np.all(np.isfinite(grad_x))
        for name, grad in net.grads.items():
            assert grad.shape == net.params[name].shape, name
            assert np.all(np.isfinite(grad)), name

    @settings(max_examples=10, deadline=None)
    @given(net_specs())
    def test_state_dict_roundtrip_preserves_outputs(self, spec):
        blocks, hidden, with_bn, activation, seed = spec
        rng = np.random.default_rng(seed)
        a = build_random_net(rng, blocks, hidden, with_bn, activation)
        b = build_random_net(np.random.default_rng(seed + 1), blocks, hidden,
                             with_bn, activation)
        b.load_state_dict(a.state_dict())
        x = rng.normal(size=(3, 2, 8, 8))
        np.testing.assert_allclose(a.forward(x), b.forward(x))

    @settings(max_examples=10, deadline=None)
    @given(net_specs())
    def test_zero_grads_resets_everything(self, spec):
        blocks, hidden, with_bn, activation, seed = spec
        rng = np.random.default_rng(seed)
        net = build_random_net(rng, blocks, hidden, with_bn, activation)
        x = rng.normal(size=(3, 2, 8, 8))
        y = rng.integers(0, 3, size=3)
        loss = SoftmaxCrossEntropy()
        loss.forward(net.forward(x, training=True), y)
        net.backward(loss.backward())
        net.zero_grads()
        for grad in net.grads.values():
            assert np.all(grad == 0.0)
