"""Sentiment analysis: a second built-in task from Figure 2's table.

Uses the lower-level library APIs directly (rather than the SDK) to
tune and train a FastText-style bag-of-words MLP on a synthetic binary
sentiment dataset, reporting accuracy and F1 — the kind of review
classification the paper's introduction motivates ("inferring the
quality of a product from the review column").

Run:  python examples/sentiment_analysis.py
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
from repro.data import make_sentiment_dataset
from repro.paramserver import ParameterServer
from repro.tensor import SGD, SoftmaxCrossEntropy, evaluate, f1_score, train_epoch
from repro.zoo.builders import build_mlp

train_x, train_y, test_x, test_y = make_sentiment_dataset(
    vocab_size=120, train_count=400, test_count=150, signal=0.9, seed=3
)
# split a validation set off the training data
val_x, val_y = train_x[:80], train_y[:80]
fit_x, fit_y = train_x[80:], train_y[80:]


class SentimentBackend:
    """A trainer backend over the sentiment MLP (duck-typed)."""

    def __init__(self, seed=0):
        self.seed = seed

    def start(self, trial: Trial, init_state):
        rng = np.random.default_rng(self.seed + trial.trial_id)
        hidden = int(trial.params["hidden"])
        network = build_mlp((train_x.shape[1],), 2, rng, hidden=(hidden,),
                            dropout=float(trial.params["dropout"]))
        if init_state:
            network.warm_start(init_state)
        return _Session(network, trial, rng)

    def epoch_cost(self, trial):
        return 5.0


class _Session:
    def __init__(self, network, trial, rng):
        self.network = network
        self.loss = SoftmaxCrossEntropy()
        self.optimizer = SGD(lr=float(trial.params["lr"]),
                             momentum=float(trial.params["momentum"]))
        self._rng = rng
        self.epochs = 0
        self.best_performance = 0.0

    def run_epoch(self):
        train_epoch(self.network, self.loss, self.optimizer, fit_x, fit_y,
                    batch_size=32, rng=self._rng)
        acc = evaluate(self.network, val_x, val_y)
        self.epochs += 1
        self.best_performance = max(self.best_performance, acc)
        return acc

    def state_dict(self):
        return self.network.state_dict()


space = HyperSpace()
space.add_range_knob("lr", "float", 1e-3, 1.0, log_scale=True)
space.add_range_knob("momentum", "float", 0.0, 0.99)
space.add_range_knob("dropout", "float", 0.0, 0.5)
space.add_categorical_knob("hidden", "int", [16, 32, 64])

conf = HyperConf(max_trials=10, max_epochs_per_trial=8, early_stop_patience=3)
param_server = ParameterServer()
master = StudyMaster(
    "sentiment", conf, RandomSearchAdvisor(space, rng=np.random.default_rng(0)),
    param_server, scheduler=CoStudy(rng=np.random.default_rng(1)),
)
workers = make_workers(master, SentimentBackend(), param_server, conf, num_workers=2)
report = run_study(master, workers)

best = report.best
print(f"tuned {len(report.results)} trials; best validation accuracy "
      f"{best.performance:.3f} with {best.trial.params}")

# retrain the best configuration and evaluate on the held-out test set
rng = np.random.default_rng(9)
network = build_mlp((train_x.shape[1],), 2, rng,
                    hidden=(int(best.trial.params["hidden"]),))
optimizer = SGD(lr=float(best.trial.params["lr"]),
                momentum=float(best.trial.params["momentum"]))
loss = SoftmaxCrossEntropy()
for _ in range(10):
    train_epoch(network, loss, optimizer, train_x, train_y, batch_size=32, rng=rng)
predictions = network.predict_labels(test_x)
print(f"test accuracy: {np.mean(predictions == test_y):.3f}")
print(f"test F1:       {f1_score(predictions, test_y):.3f}")
