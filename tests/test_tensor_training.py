"""Training-loop tests: networks actually learn."""

import hashlib

import numpy as np

from repro.core.tune import Trial
from repro.core.tune.backends import RealTrainer
from repro.tensor import (
    SGD,
    BatchNorm,
    Conv2D,
    Dense,
    Dropout,
    Flatten,
    MaxPool2D,
    Network,
    ReLU,
    SoftmaxCrossEntropy,
    evaluate,
    train_epoch,
)
from repro.zoo.builders import build_mlp, build_resnet_mini, build_snoek_convnet


class TestTrainEpoch:
    def test_loss_decreases_on_separable_data(self, rng):
        net = build_mlp((4,), 2, rng, hidden=(16,))
        x = np.vstack([rng.normal(-1, 0.3, size=(40, 4)), rng.normal(1, 0.3, size=(40, 4))])
        y = np.array([0] * 40 + [1] * 40)
        loss = SoftmaxCrossEntropy()
        opt = SGD(lr=0.1, momentum=0.9)
        first = train_epoch(net, loss, opt, x, y, batch_size=16, rng=rng)
        for _ in range(15):
            last = train_epoch(net, loss, opt, x, y, batch_size=16, rng=rng)
        assert last < first
        assert evaluate(net, x, y) > 0.95

    def test_convnet_learns_synthetic_images(self, rng, tiny_dataset):
        net = build_snoek_convnet(
            tiny_dataset.image_shape, tiny_dataset.num_classes, rng,
            width=4, dropout=0.0, init_std=0.2,
        )
        loss = SoftmaxCrossEntropy()
        opt = SGD(lr=0.05, momentum=0.9)
        for _ in range(8):
            train_epoch(
                net, loss, opt, tiny_dataset.train_x, tiny_dataset.train_y,
                batch_size=16, rng=rng,
            )
        assert evaluate(net, tiny_dataset.val_x, tiny_dataset.val_y) > 0.6

    def test_batchnorm_convnet_trains(self, rng, tiny_dataset):
        net = build_resnet_mini(
            tiny_dataset.image_shape, tiny_dataset.num_classes, rng, width=4
        )
        loss = SoftmaxCrossEntropy()
        opt = SGD(lr=0.05, momentum=0.9)
        first = train_epoch(
            net, loss, opt, tiny_dataset.train_x, tiny_dataset.train_y,
            batch_size=16, rng=rng,
        )
        for _ in range(6):
            last = train_epoch(
                net, loss, opt, tiny_dataset.train_x, tiny_dataset.train_y,
                batch_size=16, rng=rng,
            )
        assert last < first

    def test_augment_hook_called(self, rng):
        net = build_mlp((2, 4, 4), 2, rng, hidden=(8,))
        calls = []

        def augment(batch, batch_rng):
            calls.append(batch.shape[0])
            return batch

        x = rng.normal(size=(10, 2, 4, 4))
        y = rng.integers(0, 2, size=10)
        train_epoch(net, SoftmaxCrossEntropy(), SGD(lr=0.01), x, y,
                    batch_size=4, rng=rng, augment=augment)
        assert sum(calls) == 10

    def test_evaluate_on_known_labels(self, rng):
        net = build_mlp((4,), 2, rng, hidden=(4,))
        x = rng.normal(size=(10, 4))
        predicted = net.predict_labels(x)
        assert evaluate(net, x, predicted) == 1.0


def _bn_dropout_builder(input_shape, num_classes, rng, dropout=0.5):
    return Network([
        Conv2D(4, 3, name="pin/conv"),
        BatchNorm(name="pin/bn"),
        ReLU(name="pin/relu"),
        MaxPool2D(2, name="pin/pool"),
        Flatten(name="pin/flatten"),
        Dropout(dropout, name="pin/dropout"),
        Dense(num_classes, name="pin/fc"),
    ], name="pin").build(input_shape, rng)


class TestPinnedRealTraining:
    """A seeded real-engine trial, digested bit for bit: SGD with momentum,
    weight decay and an exponential learning-rate decay, over BatchNorm,
    Dropout and the standard CIFAR pipeline (pad-and-crop plus flip)."""

    def test_trial_digest(self, tiny_dataset):
        trainer = RealTrainer(tiny_dataset, _bn_dropout_builder, batch_size=16, seed=3)
        params = {"lr": 0.05, "lr_decay": 0.99, "momentum": 0.9,
                  "weight_decay": 5e-4, "dropout": 0.3}
        session = trainer.start(Trial(params=params, trial_id=1), None)
        accuracies = [session.run_epoch() for _ in range(4)]
        state = session.state_dict()
        digest = hashlib.sha256(repr(accuracies).encode())
        for key in sorted(state):
            digest.update(key.encode())
            digest.update(state[key].tobytes())
        assert digest.hexdigest() == (
            "d7fbd3bb0b1a4cafde9ee94c905d34bff7f3b5b7daa344aa401a6e80d0ef14cd")
