"""Trainer backends: how a worker actually evaluates a trial.

Two backends implement the same session protocol:

* :class:`RealTrainer` trains a genuine NumPy network from
  :mod:`repro.zoo.builders` over a dataset — the full code path, used
  by examples, integration tests and small studies;
* :class:`~repro.core.tune.surrogate.SurrogateTrainer` (see its module)
  replays a calibrated response surface, standing in for the paper's
  GPU cluster so the Figure 8/9/11 studies run hundreds of trials in
  seconds.

A session is advanced one epoch at a time (``run_epoch`` returns the
validation accuracy after that epoch), which is what lets the CoStudy
master early-stop and checkpoint workers mid-trial.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Protocol

import numpy as np

from repro.core.tune.trial import Trial
from repro.data.datasets import ImageDataset
from repro.data.preprocess import Compose, standard_cifar_pipeline
from repro.tensor import Network, SGD, SoftmaxCrossEntropy, evaluate, train_epoch
from repro.tensor.optimizers import ExponentialDecaySchedule
from repro.utils.rng import derive_rng

__all__ = ["TrialSession", "TrainerBackend", "RealTrainer"]


class TrialSession(Protocol):
    """One in-progress trial on a worker.

    A session computed elsewhere may define ``cancel()``: the worker calls
    it on abandoning the trial (``kStop``); ``state_dict`` keeps working.
    """

    def run_epoch(self) -> float:
        """Train one epoch; return the validation accuracy after it."""
        ...

    def state_dict(self) -> dict[str, np.ndarray]:
        """Current model parameters (for the parameter server)."""
        ...

    #: epochs run so far, and the best validation accuracy among them.
    epochs: int
    best_performance: float


class TrainerBackend(Protocol):
    """Factory of trial sessions plus a cost model for simulated time."""

    def start(self, trial: Trial, init_state: dict[str, np.ndarray] | None) -> TrialSession:
        ...

    def epoch_cost(self, trial: Trial) -> float:
        """Simulated seconds one training epoch takes for this trial."""
        ...


class _RealSession:
    """Real NumPy training session over an :class:`ImageDataset`."""

    def __init__(
        self,
        network: Network,
        dataset: ImageDataset,
        trial: Trial,
        batch_size: int,
        rng: np.random.Generator,
        augment: Compose | None,
    ):
        self.network = network
        self.dataset = dataset
        self.trial = trial
        self.batch_size = batch_size
        self._rng = rng
        self._augment = augment
        params = trial.params
        self.loss = SoftmaxCrossEntropy()
        lr: float | ExponentialDecaySchedule = float(params.get("lr", 0.05))
        if "lr_decay" in params:
            # Table 1 group 3: the decay rate rides on its own knob.
            lr = ExponentialDecaySchedule(lr, decay=float(params["lr_decay"]))
        self.optimizer = SGD(
            lr=lr,
            momentum=float(params.get("momentum", 0.9)),
            weight_decay=float(params.get("weight_decay", 1e-4)),
        )
        self.epochs = 0
        self.best_performance = 0.0
        self.diverged = False

    def run_epoch(self) -> float:
        self.epochs += 1
        if self.diverged:
            return 0.0
        # Extreme trials (huge learning rates) legitimately diverge;
        # suppress the overflow noise and report zero accuracy so the
        # advisor records the failure instead of crashing the worker.
        with np.errstate(over="ignore", invalid="ignore"):
            mean_loss = train_epoch(
                self.network,
                self.loss,
                self.optimizer,
                self.dataset.train_x,
                self.dataset.train_y,
                batch_size=self.batch_size,
                rng=self._rng,
                augment=self._augment,
            )
            if not np.isfinite(mean_loss):
                self.diverged = True
                return 0.0
            acc = evaluate(self.network, self.dataset.val_x, self.dataset.val_y)
        self.best_performance = max(self.best_performance, acc)
        return acc

    def state_dict(self) -> dict[str, np.ndarray]:
        return self.network.state_dict()


class RealTrainer:
    """Backend that trains real networks built by ``builder``.

    ``builder(input_shape, num_classes, rng, **arch_kwargs)`` must
    return a built :class:`Network`; architecture-group knobs are
    forwarded via ``arch_knobs`` (names looked up in the trial params).
    """

    def __init__(
        self,
        dataset: ImageDataset,
        builder: Callable[..., Network],
        batch_size: int = 32,
        seconds_per_epoch: float = 30.0,
        use_augmentation: bool = True,
        arch_knobs: tuple[str, ...] = ("dropout", "init_std", "width"),
        seed: int = 0,
    ):
        self.dataset = dataset
        self.builder = builder
        self.batch_size = int(batch_size)
        self.seconds_per_epoch = float(seconds_per_epoch)
        self.use_augmentation = bool(use_augmentation)
        self.arch_knobs = tuple(arch_knobs)
        self.seed = int(seed)
        self._augment = (
            standard_cifar_pipeline(dataset.train_x, pad=2) if use_augmentation else None
        )
        # The builder's signature never changes; inspect it once here
        # rather than on every start() (it is surprisingly expensive).
        self._builder_params = frozenset(inspect.signature(builder).parameters)

    def start(self, trial: Trial, init_state: dict[str, np.ndarray] | None) -> _RealSession:
        rng = derive_rng(self.seed, f"trial:{trial.trial_id}")
        kwargs: dict[str, Any] = {
            name: trial.params[name]
            for name in self.arch_knobs
            if name in trial.params and name in self._builder_params
        }
        network = self.builder(
            self.dataset.image_shape, self.dataset.num_classes, rng, **kwargs
        )
        if init_state:
            network.warm_start(init_state)
        return _RealSession(
            network=network,
            dataset=self.dataset,
            trial=trial,
            batch_size=self.batch_size,
            rng=rng,
            augment=self._augment,
        )

    def epoch_cost(self, trial: Trial) -> float:
        return self.seconds_per_epoch
