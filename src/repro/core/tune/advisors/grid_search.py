"""Grid search over the cartesian knob grid."""

from __future__ import annotations

from typing import Any

from repro.core.tune.advisors.base import TrialAdvisor
from repro.core.tune.hyperspace import HyperSpace

__all__ = ["GridSearchAdvisor"]


class GridSearchAdvisor(TrialAdvisor):
    """Enumerate the grid once; proposes ``None`` when exhausted.

    The paper notes random search is usually more efficient; the grid
    advisor exists because the framework must be "extensible for
    popular hyper-parameter tuning algorithms" including grid search.
    """

    def __init__(self, space: HyperSpace, resolution: int = 3):
        super().__init__(space)
        self._grid = space.grid(resolution)
        self._cursor = 0

    def propose(self, worker: str) -> dict[str, Any] | None:
        if self._cursor >= len(self._grid):
            return None
        params = self._grid[self._cursor]
        self._cursor += 1
        return params
