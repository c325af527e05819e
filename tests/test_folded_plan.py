"""The folded inference plan a deployment serves through, and the one
arena per thread that every network's plan borrows.

``repro.tensor.workspace.fold`` folds each ``BatchNorm`` that directly
follows a ``Conv2D`` or ``Dense`` into that layer. Folding reorders
float arithmetic, so the oracle is the trained network's layer loop up to
a stated tolerance: the same labels, and probabilities within
``PROB_ATOL``. The arena is shared, so the byte-identity oracle of
``test_inference_workspace.py`` is run here across networks and threads.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core.system import ModelSpec, Rafiki
from repro.data import make_image_classification
from repro.tensor import BatchNorm, Dense, Flatten, Layer, Network, ReLU
from repro.tensor.losses import softmax
from repro.tensor.workspace import _arena, fold
from repro.zoo.builders import BUILDERS
from test_inference_workspace import assert_same, layer_loop

SHAPE = (3, 16, 16)
CLASSES = 10
#: the largest probability difference the fold may make (float32 logits
#: move by a few ulps: at most 3.4e-6 on these nets, probabilities 6.6e-7).
PROB_ATOL = 1e-5


def build_dense_bn(input_shape, num_classes, rng) -> Network:
    return Network([
        Flatten(name="flatten"), Dense(32, name="fc1"), BatchNorm(name="bn"),
        ReLU(name="relu"), Dense(num_classes, name="fc2"),
    ], name="dense-bn").build(input_shape, rng)


NETS = {**BUILDERS, "dense-bn": build_dense_bn}


def trained_like(name: str, rng: np.random.Generator) -> Network:
    """A zoo net whose batch norms carry statistics and affine parameters
    away from their initial values, as training leaves them."""
    net = NETS[name](SHAPE, CLASSES, rng)
    for layer in net.layers:
        if isinstance(layer, BatchNorm):
            channels = layer.params["gamma"].shape
            layer.params["gamma"][...] = rng.uniform(0.5, 2.0, channels)
            layer.params["beta"][...] = rng.normal(0.0, 0.5, channels)
            layer.buffers["running_mean"][...] = rng.normal(0.0, 0.5, channels)
            layer.buffers["running_var"][...] = rng.uniform(0.2, 3.0, channels)
    return net


def assert_folded_answers(record: Network, served: Network, x: np.ndarray) -> None:
    want = layer_loop(record, x)
    got = served.forward(x)
    flipped = np.flatnonzero(np.argmax(got, axis=1) != np.argmax(want, axis=1))
    top2 = np.sort(want, axis=1)[:, -2:]
    assert not len(flipped), (
        f"labels flip on inputs {flipped.tolist()}, layer-loop margins "
        f"{(top2[flipped, 1] - top2[flipped, 0]).tolist()}"
    )
    np.testing.assert_allclose(served.predict(x), softmax(want), rtol=0, atol=PROB_ATOL)


@pytest.mark.parametrize("name", sorted(NETS))
def test_the_fold_answers_as_the_layer_loop(name):
    rng = np.random.default_rng(31)
    record = trained_like(name, rng)
    served = fold(record)
    norms = sum(isinstance(layer, BatchNorm) for layer in record.layers)
    assert (served is record) == (norms == 0)
    assert not any(isinstance(layer, BatchNorm) for layer in served.layers)
    for batch in (1, 16, 64):
        assert_folded_answers(record, served, rng.standard_normal((batch,) + SHAPE))


def test_the_fold_leaves_the_record_as_it_was():
    rng = np.random.default_rng(32)
    record = trained_like("resnet-mini", rng)
    state = {name: value.tobytes() for name, value in record.state_dict().items()}
    x = rng.standard_normal((8,) + SHAPE).astype(np.float32)
    before = record.forward(x)
    fold(record).forward(x)
    assert {name: value.tobytes() for name, value in record.state_dict().items()} == state
    assert_same(record.forward(x), before)


def test_a_refold_writes_the_served_arrays_in_place():
    rng = np.random.default_rng(33)
    record = trained_like("resnet-mini", rng)
    served = fold(record)
    arrays = [id(array) for array in served.params.values()]
    x = rng.standard_normal((16,) + SHAPE).astype(np.float32)
    served.forward(x)
    workspace = served._workspace
    record.warm_start(trained_like("resnet-mini", rng).state_dict())
    assert fold(record, served) is served
    assert [id(array) for array in served.params.values()] == arrays
    assert_same(served.forward(x), fold(record).forward(x))
    assert served._workspace is workspace
    assert_folded_answers(record, served, x)


def _system_serving(state: dict) -> tuple[Rafiki, ModelSpec]:
    dataset = make_image_classification(
        name="fold-set", num_classes=CLASSES, image_shape=SHAPE, train_per_class=2,
        val_per_class=2, test_per_class=4, difficulty=0.3, seed=3,
    )
    system = Rafiki(seed=7)
    system.import_images(dataset)
    system.param_server.put("resnet", state)
    return system, ModelSpec("resnet-mini", "resnet", 0.5, "ImageClassification", "fold-set")


def test_a_redeploy_serves_the_refold_from_the_same_networks():
    rng = np.random.default_rng(34)
    system, spec = _system_serving(trained_like("resnet-mini", rng).state_dict())
    job = system.create_inference_job([spec])
    info = system.get_inference_job(job)
    networks, trained = list(info.networks), list(info.trained)
    assert networks[0] is not trained[0]
    x = rng.standard_normal((16,) + SHAPE).astype(np.float32)
    before = networks[0].forward(x)

    system.param_server.put("resnet", trained_like("resnet-mini", rng).state_dict())
    system.redeploy_inference_job(job)
    assert info.networks == networks and all(
        new is old for new, old in zip(info.networks, networks)
    )
    assert info.trained[0] is trained[0]
    after = info.networks[0].forward(x)
    assert not np.array_equal(after, before)
    fresh = system.get_inference_job(system.create_inference_job([spec]))
    assert_same(after, fresh.networks[0].forward(x))
    assert_same(fresh.trained[0].forward(x), info.trained[0].forward(x))


def test_two_networks_interleaved_over_growing_batches_are_the_layer_loop():
    rng = np.random.default_rng(35)
    nets = [BUILDERS["snoek8"](SHAPE, CLASSES, rng), fold(trained_like("resnet-mini", rng))]
    grown = 0
    for batch in (1, 2, 1, 4, 3, 8, 16, 5, 17, 1, 16):
        for net in nets:
            x = rng.standard_normal((batch,) + SHAPE).astype(np.float32)
            assert_same(net.forward(x), layer_loop(net, x))
            grown = max(grown, _arena.buffer.nbytes)
    assert _arena.buffer.nbytes == grown


def test_threads_run_networks_at_once():
    """More threads than a two-core machine has cores, each running its own
    network with a short switch interval: every answer is the layer
    loop's bytes, and each thread used its own arena."""
    rng = np.random.default_rng(36)
    nets = [
        BUILDERS["snoek8"](SHAPE, CLASSES, rng), fold(trained_like("resnet-mini", rng)),
        BUILDERS["squeeze-mini"](SHAPE, CLASSES, rng),
    ]
    inputs = [rng.standard_normal((batch,) + SHAPE).astype(np.float32) for batch in (16, 1, 7)]
    wanted = [[layer_loop(net, x).tobytes() for x in inputs] for net in nets]
    start = threading.Barrier(len(nets), timeout=30)
    wrong, errors, arenas = [0] * len(nets), [], [None] * len(nets)

    def serve(index: int) -> None:
        try:
            start.wait()
            for _ in range(40):
                for x, want in zip(inputs, wanted[index]):
                    wrong[index] += nets[index].forward(x).tobytes() != want
            arenas[index] = (_arena.buffer, [net._workspace in _arena.plans for net in nets])
        except Exception as error:  # noqa: BLE001 - reported below
            errors.append(error)

    threads = [threading.Thread(target=serve, args=(i,)) for i in range(len(nets))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and wrong == [0] * len(nets)
    # Each thread ran its network through its own arena, and this
    # thread's holds no plan of theirs.
    buffers = [buffer for buffer, _ in arenas] + [_arena.buffer]
    assert len({id(buffer) for buffer in buffers}) == len(buffers)
    for index, (_, holds) in enumerate(arenas):
        assert holds == [i == index for i in range(len(nets))]
    assert [net._workspace in _arena.plans for net in nets] == [False] * len(nets)


class _RunsInner(Layer):
    """A layer that runs ``inner`` on ``x_inner`` from inside a forward."""

    def __init__(self, inner: Network, x_inner: np.ndarray, answers: list):
        super().__init__("runs-inner")
        self.inner, self.x_inner, self.answers = inner, x_inner, answers

    def forward(self, x, training=False):
        self.answers.append(self.inner.forward(self.x_inner))
        return x


def test_a_network_run_inside_another_forward_takes_the_layer_loop():
    rng = np.random.default_rng(38)
    inner = BUILDERS["vgg-mini"](SHAPE, CLASSES, rng)
    x_inner = rng.standard_normal((4,) + SHAPE).astype(np.float32)
    inner.forward(x_inner)
    answers: list = []
    outer = Network(
        [Flatten(name="f"), Dense(8, name="d"), ReLU(name="r"),
         _RunsInner(inner, x_inner, answers)]
    ).build(SHAPE, rng)
    x = rng.standard_normal((4,) + SHAPE).astype(np.float32)
    want = layer_loop(outer, x)
    answers.clear()
    assert_same(outer.forward(x), want)
    assert_same(answers[0], layer_loop(inner, x_inner))
    assert_same(inner.forward(x_inner), answers[0])


def test_a_dropped_network_leaves_no_plan_with_the_arena():
    rng = np.random.default_rng(37)
    net = BUILDERS["squeeze-mini"](SHAPE, CLASSES, rng)
    net.forward(rng.standard_normal((4,) + SHAPE))
    workspace = weakref.ref(net._workspace)
    assert workspace() in _arena.plans
    del net
    gc.collect()
    assert workspace() is None
