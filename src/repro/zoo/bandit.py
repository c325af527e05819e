"""Multi-armed-bandit model selection (the Ease.ml approach).

Section 4.1 contrasts Rafiki's simple diverse-set selection with
Ease.ml's formulation: every candidate model is an arm, a "pull" spends
one training trial on that model, and under-performing models gradually
lose their share of the budget. This module implements that alternative
as a UCB1 allocator so the two strategies can be compared (see
``benchmarks/bench_ablation_bandit.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["UCBModelSelector", "ArmStats"]


@dataclass
class ArmStats:
    """Observed trial outcomes for one candidate model."""

    name: str
    pulls: int = 0
    rewards: list[float] = field(default_factory=list)

    @property
    def mean_reward(self) -> float:
        return sum(self.rewards) / len(self.rewards) if self.rewards else 0.0

    @property
    def best_reward(self) -> float:
        return max(self.rewards) if self.rewards else 0.0


class UCBModelSelector:
    """UCB1 over candidate models; reward = a trial's validation accuracy.

    ``select()`` returns the model that should receive the next training
    trial: each arm is tried once, then arms are ranked by
    ``mean + c * sqrt(ln(total) / pulls)``. ``report(model, accuracy)``
    feeds the outcome back.
    """

    def __init__(self, model_names, exploration: float = 1.0,
                 rng: np.random.Generator | None = None):
        names = list(model_names)
        if not names:
            raise ConfigurationError("at least one candidate model is required")
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate model names: {names}")
        self.exploration = float(exploration)
        self.arms = {name: ArmStats(name) for name in names}
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def select(self) -> str:
        """The model to train next."""
        untried = [arm for arm in self.arms.values() if arm.pulls == 0]
        if untried:
            return untried[int(self._rng.integers(0, len(untried)))].name
        log_total = math.log(sum(arm.pulls for arm in self.arms.values()))
        best_name, best_score = None, -math.inf
        for arm in self.arms.values():
            bonus = self.exploration * math.sqrt(log_total / arm.pulls)
            score = arm.mean_reward + bonus
            if score > best_score:
                best_name, best_score = arm.name, score
        assert best_name is not None
        return best_name

    def report(self, model_name: str, accuracy: float) -> None:
        """Record a finished trial's validation accuracy."""
        if model_name not in self.arms:
            raise ConfigurationError(f"unknown model {model_name!r}")
        arm = self.arms[model_name]
        arm.pulls += 1
        arm.rewards.append(float(accuracy))

    def allocation(self) -> dict[str, int]:
        """Trials spent per model so far."""
        return {name: arm.pulls for name, arm in self.arms.items()}

    def best_model(self) -> str:
        """The model with the best single trial seen so far."""
        return max(self.arms.values(), key=lambda arm: arm.best_reward).name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{name}:{arm.pulls}p/{arm.mean_reward:.2f}" for name, arm in self.arms.items()
        )
        return f"UCBModelSelector({parts})"
