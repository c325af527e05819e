"""Early stopping on a plateauing validation metric.

The paper stops a trial when its metric "is not decreasing for 5
consecutive epochs"; here the tracked metric is validation accuracy, so
the stopper fires after ``patience`` epochs without an improvement of
at least ``min_delta``.
"""

from __future__ import annotations

from repro.exceptions import ConfigurationError

__all__ = ["EarlyStopper", "TrialStopRule"]


class EarlyStopper:
    """Patience-based plateau detector (higher metric = better)."""

    def __init__(self, patience: int = 5, min_delta: float = 1e-3):
        if patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {patience}")
        if min_delta < 0:
            raise ConfigurationError(f"min_delta must be >= 0, got {min_delta}")
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.best = float("-inf")
        self.stale_epochs = 0

    def update(self, metric: float) -> bool:
        """Record one epoch's metric; return True when training should stop."""
        if metric > self.best + self.min_delta:
            self.best = metric
            self.stale_epochs = 0
        else:
            self.stale_epochs += 1
        return self.stale_epochs >= self.patience


class TrialStopRule:
    """When one trial's epoch loop ends: epoch cap reached or plateau.

    The single statement of the rule.  A :class:`TuneWorker` and a
    free-running pool child each feed one of these the same accuracy
    stream, so the child stops at exactly the parent's epoch.  A trial
    whose ``local_early_stop`` the scheduler cleared (CoStudy: the
    master decides) has only the epoch cap.
    """

    def __init__(self, trial, conf):
        self.epoch_cap = (
            trial.max_epochs
            if trial.max_epochs is not None
            else conf.max_epochs_per_trial
        )
        self._stopper = (
            EarlyStopper(conf.early_stop_patience, conf.early_stop_min_delta)
            if trial.local_early_stop
            else None
        )
        self.epochs = 0

    def update(self, accuracy: float) -> bool:
        """Record one finished epoch; return True when the trial is over."""
        self.epochs += 1
        plateaued = self._stopper is not None and self._stopper.update(accuracy)
        return self.epochs >= self.epoch_cap or plateaued
