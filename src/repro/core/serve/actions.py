"""The RL action space: (model subset, batch size) pairs.

The action space of Section 5.2 has size ``(2^|M| - 1) * |B|`` — every
non-empty model subset crossed with every candidate batch size (the
all-zeros selection is excluded).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.exceptions import ConfigurationError

__all__ = ["Action", "ActionSpace"]


@dataclass(frozen=True)
class Action:
    """One decodable action."""

    subset: tuple[int, ...]  # indices of selected models
    batch_size: int


class ActionSpace:
    """Enumerates the joint (subset, batch) actions."""

    def __init__(self, num_models: int, batch_sizes: Sequence[int]):
        if num_models < 1:
            raise ConfigurationError(f"num_models must be >= 1, got {num_models}")
        sizes = tuple(sorted(set(int(b) for b in batch_sizes)))
        if not sizes:
            raise ConfigurationError("batch_sizes must be non-empty")
        self.num_models = int(num_models)
        self.batch_sizes = sizes
        self.actions: list[Action] = []
        for bits in range(1, 2**self.num_models):
            subset = tuple(i for i in range(self.num_models) if bits >> i & 1)
            for size in sizes:
                self.actions.append(Action(subset=subset, batch_size=size))

    def __len__(self) -> int:
        return len(self.actions)

    def decode(self, index: int) -> Action:
        return self.actions[index]
