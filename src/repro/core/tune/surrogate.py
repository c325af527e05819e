"""The surrogate trainer: a calibrated training response surface.

The paper's Section 7.1 studies run hundreds of full ConvNet trainings
on a GPU cluster. This backend substitutes a response surface so the
*tuning algorithms* (Study vs CoStudy, random search vs Bayesian
optimisation, 1-8 workers) can be compared over hundreds of trials on a
CPU in seconds. The surface reproduces the training phenomenology those
comparisons depend on:

* a smooth quality score ``q(h) in [0, 1]`` peaking at textbook values
  of the Section 7.1 knobs (learning rate, momentum, weight decay,
  dropout, initialisation std), so random trials spread over 20-85%
  accuracy while well-tuned trials approach ~93% — the CIFAR-10 regime;
* saturating learning curves ``acc(e)`` whose time constant grows when
  the learning rate is off, so early stopping matters;
* warm starting from a checkpoint with accuracy ``a0`` resumes the
  curve near ``a0`` (pre-training: faster convergence) and lifts the
  reachable asymptote, while *bad* hyper-parameters degrade a good
  checkpoint (the failure mode the paper's alpha-greedy rule guards
  against) and bad checkpoints drag good trials down;
* per-epoch observation noise.

The session's "parameters" are a single token array carrying the
checkpoint accuracy, which flows through the same parameter-server
machinery as real weights.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.tune.trial import Trial
from repro.utils.rng import derive_rng

__all__ = ["SurrogateTrainer", "SURROGATE_ACC_KEY"]

#: state-dict key carrying a surrogate checkpoint's accuracy.
SURROGATE_ACC_KEY = "__surrogate__/accuracy"

#: (optimum, width) of each knob's quality penalty, in the units the
#: Section 7.1 space uses. Log-scaled knobs use log10 distance.
_KNOB_RESPONSES = {
    "lr": {"optimum": 0.05, "width": 2.0, "log": True},
    "momentum": {"optimum": 0.90, "width": 0.80, "log": False},
    "weight_decay": {"optimum": 5e-4, "width": 2.9, "log": True},
    "dropout": {"optimum": 0.35, "width": 0.90, "log": False},
    "init_std": {"optimum": 0.05, "width": 2.3, "log": True},
}


class _SurrogateSession:
    """Replays one trial's learning curve."""

    def __init__(self, trainer: "SurrogateTrainer", trial: Trial, start_acc: float,
                 final_acc: float, tau: float, rng: np.random.Generator):
        self._trainer = trainer
        self.trial = trial
        self._start = start_acc
        self._final = final_acc
        self._tau = tau
        self._rng = rng
        self.epochs = 0
        self.best_performance = 0.0
        self._current = start_acc

    def run_epoch(self) -> float:
        self.epochs += 1
        mean = self._final + (self._start - self._final) * math.exp(-self.epochs / self._tau)
        observed = mean + self._rng.normal(0.0, self._trainer.noise)
        observed = float(min(max(observed, 0.0), 0.999))
        self._current = observed
        self.best_performance = max(self.best_performance, observed)
        return observed

    def state_dict(self) -> dict[str, np.ndarray]:
        return {SURROGATE_ACC_KEY: np.array([self._current])}


class SurrogateTrainer:
    """Response-surface backend with warm-start semantics.

    The calibration values below are the surface's constants; ``seed``
    alone varies between trainers.
    """

    #: accuracy before training: random guessing over 10 classes.
    baseline_acc = 0.10
    #: the asymptote a textbook trial approaches.
    max_acc = 0.945
    #: how much of the gap to ``max_acc`` a perfect trial closes.
    gain = 1.0
    #: exponent on quality: below 1, the last points need less perfection.
    concavity = 0.6
    #: share of a checkpoint's accuracy a warm start resumes from.
    retention = 0.95
    #: how hard bad hyper-parameters pull a good checkpoint down.
    destroy = 0.4
    #: epochs-to-saturation at the optimal learning rate.
    base_tau = 8.0
    #: epochs-to-saturation of a dropping curve.
    decay_tau = 2.5
    #: standard deviation of the per-epoch observation noise.
    noise = 0.006
    #: simulated cost of one epoch.
    seconds_per_epoch = 30.0

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    # ------------------------------------------------------------------
    # response surface
    # ------------------------------------------------------------------

    def quality(self, params: dict) -> float:
        """Quality score q(h) in [0, 1]; 1 means textbook settings."""
        penalty = 0.0
        for name, spec in _KNOB_RESPONSES.items():
            if name not in params:
                continue
            value = float(params[name])
            if spec["log"]:
                value = max(value, 1e-12)
                distance = (math.log10(value) - math.log10(spec["optimum"])) / spec["width"]
            else:
                distance = (value - spec["optimum"]) / spec["width"]
            penalty += distance**2
        return math.exp(-penalty)

    def final_accuracy(self, params: dict, start_acc: float) -> float:
        """Asymptotic accuracy when training from ``start_acc``."""
        q = self.quality(params)
        # Concavity: climbing the last few accuracy points needs less
        # hyper-parameter perfection than a linear response would imply.
        climb = (self.max_acc - start_acc) * self.gain * q**self.concavity
        damage = (1.0 - q) * self.destroy * max(start_acc - self.baseline_acc, 0.0)
        return float(min(max(start_acc + climb - damage, 0.01), self.max_acc))

    def time_constant(self, params: dict) -> float:
        """Epochs-to-saturation; off learning rates converge slower."""
        lr = float(params.get("lr", _KNOB_RESPONSES["lr"]["optimum"]))
        off = abs(math.log10(max(lr, 1e-12)) - math.log10(_KNOB_RESPONSES["lr"]["optimum"]))
        return self.base_tau * (1.0 + 0.7 * off)

    # ------------------------------------------------------------------
    # backend protocol
    # ------------------------------------------------------------------

    def start(self, trial: Trial, init_state: dict[str, np.ndarray] | None) -> _SurrogateSession:
        rng = derive_rng(self.seed, f"surrogate-trial:{trial.trial_id}")
        if init_state and SURROGATE_ACC_KEY in init_state:
            checkpoint_acc = float(init_state[SURROGATE_ACC_KEY][0])
            start_acc = max(checkpoint_acc * self.retention, self.baseline_acc)
        else:
            start_acc = self.baseline_acc
        final_acc = self.final_accuracy(trial.params, start_acc)
        # A dropping curve (bad trial from a good checkpoint) collapses fast.
        tau = self.time_constant(trial.params) if final_acc >= start_acc else self.decay_tau
        # Trial-level bias models run-to-run variance beyond epoch noise.
        final_acc = float(min(max(final_acc + rng.normal(0.0, 0.01), 0.01), 0.999))
        return _SurrogateSession(self, trial, start_acc, final_acc, tau, rng)

    def epoch_cost(self, trial: Trial) -> float:
        return self.seconds_per_epoch
