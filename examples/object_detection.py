"""Object detection: bounding-box output shapes (Figure 2's second task).

The Figure 2 API notes that a job's ``output_shape`` "could be the
total number of classes or bounding-box shape". This example trains a
small regression network that localises a bright blob in synthetic
images, tuning its hyper-parameters through the same study machinery
the classification tasks use, and reports mean IoU.

Run:  python examples/object_detection.py
"""

import numpy as np

from repro.core.tune import (
    CoStudy,
    HyperConf,
    HyperSpace,
    RandomSearchAdvisor,
    StudyMaster,
    Trial,
    make_workers,
    run_study,
)
from repro.data import make_object_detection, mean_iou
from repro.paramserver import ParameterServer
from repro.tensor import Adam, MeanSquaredError, Sigmoid
from repro.zoo.builders import build_mlp

dataset = make_object_detection(train_count=200, val_count=60, noise=0.25, seed=5)
print(f"dataset: {dataset.train_x.shape[0]} train / {dataset.val_x.shape[0]} val "
      f"images of shape {dataset.image_shape}; labels are (cx, cy, w, h) boxes")


class DetectionBackend:
    """Trainer backend for the box-regression task (duck-typed)."""

    def __init__(self, seed=0):
        self.seed = seed

    def start(self, trial: Trial, init_state):
        rng = np.random.default_rng(self.seed + trial.trial_id)
        network = build_mlp(dataset.image_shape, 4, rng,
                            hidden=(int(trial.params["hidden"]),))
        network.layers.append(Sigmoid(name=f"sig{trial.trial_id}"))
        if init_state:
            network.warm_start(init_state)
        return _Session(network, trial)

    def epoch_cost(self, trial):
        return 10.0


class _Session:
    def __init__(self, network, trial):
        self.network = network
        self.loss = MeanSquaredError()
        self.optimizer = Adam(lr=float(trial.params["lr"]))
        self.epochs = 0
        self.best_performance = 0.0

    def run_epoch(self):
        # one epoch = 10 full-batch steps on this small dataset
        for _ in range(10):
            self.network.zero_grads()
            predictions = self.network.forward(dataset.train_x, training=True)
            self.loss.forward(predictions, dataset.train_boxes)
            self.network.backward(self.loss.backward())
            self.optimizer.step(self.network.params, self.network.grads)
        score = mean_iou(self.network.forward(dataset.val_x), dataset.val_boxes)
        self.epochs += 1
        self.best_performance = max(self.best_performance, score)
        return score

    def state_dict(self):
        return self.network.state_dict()


space = HyperSpace()
space.add_range_knob("lr", "float", 1e-4, 3e-2, log_scale=True)
space.add_categorical_knob("hidden", "int", [32, 64, 128])

conf = HyperConf(max_trials=8, max_epochs_per_trial=12, early_stop_patience=4,
                 delta=0.01)
param_server = ParameterServer()
master = StudyMaster(
    "detect", conf, RandomSearchAdvisor(space, rng=np.random.default_rng(0)),
    param_server, scheduler=CoStudy(rng=np.random.default_rng(1)),
)
workers = make_workers(master, DetectionBackend(), param_server, conf, num_workers=2)
report = run_study(master, workers)

best = report.best
print(f"\ntuned {len(report.results)} trials; best validation mean IoU "
      f"{best.performance:.3f} with {best.trial.params}")
print("(an untrained/random box scores around 0.1 mean IoU)")
