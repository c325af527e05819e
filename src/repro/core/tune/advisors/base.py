"""The ``TrialAdvisor`` interface used by Algorithms 1 and 2."""

from __future__ import annotations

from typing import Any

from repro.core.tune.hyperspace import HyperSpace
from repro.core.tune.trial import TrialResult

__all__ = ["TrialAdvisor"]


class TrialAdvisor:
    """Proposes trials and digests their reported performance.

    Subclasses implement :meth:`propose`; the bookkeeping needed by the
    master loops (best-so-far tracking, per-worker last results) lives
    here.
    """

    def __init__(self, space: HyperSpace):
        self.space = space
        self.results: list[TrialResult] = []
        self._last_by_worker: dict[str, TrialResult] = {}
        self._best: TrialResult | None = None

    # ------------------------------------------------------------------
    # search algorithm hook
    # ------------------------------------------------------------------

    def propose(self, worker: str) -> dict[str, Any] | None:
        """Return the next trial's knob values, or ``None`` if exhausted."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Algorithm 1/2 interface
    # ------------------------------------------------------------------

    def next(self, worker: str) -> dict[str, Any] | None:
        """``adv.next(msg.worker)`` of Algorithm 1, line 5."""
        params = self.propose(worker)
        if params is not None:
            self.space.validate(params)
        return params

    def collect(self, result: TrialResult) -> None:
        """``adv.collect(...)``: record a finished/reported trial."""
        self.results.append(result)
        self._last_by_worker[result.worker] = result
        if self._best is None or result.performance > self._best.performance:
            self._best = result

    def is_best(self, worker: str) -> bool:
        """Did ``worker``'s most recent result set the best performance?"""
        last = self._last_by_worker.get(worker)
        return last is not None and last is self._best

    @property
    def best_performance(self) -> float:
        return self._best.performance if self._best is not None else 0.0

    @property
    def num_results(self) -> int:
        return len(self.results)
