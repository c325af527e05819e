"""Tuning configuration: the SDK's ``HyperConf`` object.

Collects the knobs of Algorithms 1 and 2: the stop criterion (total
number of trials), the early-stopping rule, CoStudy's ``delta``
performance threshold for checkpointing to the parameter server, and
the alpha-greedy schedule balancing random initialisation against
warm starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from numbers import Integral, Real

from repro.exceptions import ConfigurationError

__all__ = ["HyperConf"]


@dataclass
class HyperConf:
    """User-facing tuning configuration (``rafiki.HyperConf()``)."""

    max_trials: int = 50
    max_epochs_per_trial: int = 50
    early_stop_patience: int = 5
    early_stop_min_delta: float = 1e-3
    #: CoStudy checkpoints a worker's parameters when its reported
    #: performance beats the best by more than ``delta`` (Algorithm 2
    #: line 8). Set per the user's expectation about headroom: the
    #: paper suggests 0.1% for MNIST-grade tasks, 0.5% for CIFAR-10.
    delta: float = 0.005
    #: alpha-greedy warm-start schedule: trial t is randomly initialised
    #: with probability max(alpha_min, alpha0 * alpha_decay**t).
    alpha0: float = 1.0
    alpha_decay: float = 0.9
    alpha_min: float = 0.05
    #: optional budget on the summed training epochs across all trials.
    max_total_epochs: int | None = None

    def __post_init__(self):
        for name in ("max_trials", "max_epochs_per_trial", "early_stop_patience"):
            if not _is_integer(getattr(self, name)) or getattr(self, name) < 1:
                raise ConfigurationError(
                    f"{name} must be an integer >= 1, got {getattr(self, name)!r}"
                )
        if self.max_total_epochs is not None and not _is_integer(self.max_total_epochs):
            raise ConfigurationError(
                f"max_total_epochs must be None or an integer, got {self.max_total_epochs!r}"
            )
        for name in ("early_stop_min_delta", "delta", "alpha0", "alpha_decay", "alpha_min"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not isfinite(value):
                raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
        if self.delta < 0:
            raise ConfigurationError(f"delta must be >= 0, got {self.delta}")
        if not 0.0 <= self.alpha_min <= self.alpha0 <= 1.0:
            raise ConfigurationError(
                f"need 0 <= alpha_min <= alpha0 <= 1, got {self.alpha_min}, {self.alpha0}"
            )
        if not 0.0 < self.alpha_decay <= 1.0:
            raise ConfigurationError(f"alpha_decay must be in (0, 1], got {self.alpha_decay}")

    def should_continue(self, num_finished: int, total_epochs: int = 0) -> bool:
        """The master's ``conf.stop(num)`` check (inverted sense)."""
        if num_finished >= self.max_trials:
            return False
        if self.max_total_epochs is not None and total_epochs >= self.max_total_epochs:
            return False
        return True

    def alpha(self, num_finished: int) -> float:
        """Probability of random initialisation for the next trial."""
        return max(self.alpha_min, self.alpha0 * self.alpha_decay**num_finished)


def _is_integer(value) -> bool:
    """An integer count: a bool is not one, and neither is ``2.0``."""
    return isinstance(value, Integral) and not isinstance(value, bool)
