"""Failure injection for recovery testing.

Schedules node failures (and optional recoveries) either immediately or
after a delay on a :class:`~repro.sim.Simulator` clock, so integration
tests can verify that tuning and serving jobs survive mid-run crashes.
"""

from __future__ import annotations

from repro.cluster.manager import ClusterManager
from repro.sim import Simulator
from repro.utils.validation import check_non_negative

__all__ = ["FailureInjector"]


class FailureInjector:
    """Deterministic node-failure schedules."""

    def __init__(self, manager: ClusterManager):
        self.manager = manager
        self.injected: list[str] = []

    def fail_now(self, node_name: str, recover_after: float | None = None,
                 sim: Simulator | None = None) -> None:
        """Fail a node immediately; optionally schedule its recovery."""
        self.manager.fail_node(node_name)
        self.injected.append(node_name)
        if recover_after is not None:
            if sim is None:
                raise ValueError("recover_after requires a simulator")
            check_non_negative("recover_after", recover_after)
            sim.schedule(recover_after, self.manager.recover_node, node_name)

    def schedule_failure(self, sim: Simulator, delay: float, node_name: str,
                         recover_after: float | None = None) -> None:
        """Fail ``node_name`` after ``delay`` simulated seconds."""
        check_non_negative("delay", delay)
        sim.schedule(delay, self.fail_now, node_name, recover_after, sim)
