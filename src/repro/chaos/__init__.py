"""Chaos/robustness layer: deterministic fault injection + resilience.

Rafiki's tuning and serving jobs are long-running distributed programs
that must keep making progress while nodes, parameter-server shards and
model replicas fail underneath them. This package provides the
machinery that *proves* it:

* :class:`FaultPlan` / :class:`FaultRule` — seeded, deterministic fault
  injection (exceptions, latency, dropped responses) at named fault
  points wired into the paramserver, gateway, serve and tune paths;
* :func:`set_plan` / :func:`get_plan` / :func:`fire` — the process-wide
  plan installation mirroring the telemetry registry pattern, so tests
  swap a plan in and instrumented code pays one ``None`` check when
  chaos is off;
* re-exports of :class:`~repro.utils.retry.RetryPolicy` and
  :class:`~repro.utils.retry.CircuitBreaker`, the policies the
  instrumented subsystems recover with.

End-to-end seeded scenarios (run/check/table specs behind one runner)
live in :mod:`repro.chaos.scenarios` — imported explicitly by the CLI
and tests, not here, to keep this package import-light.

Fault-point names currently wired in:

==========================  ====================================================
``paramserver.push``        :meth:`ParameterServer.put` entry
``paramserver.pull``        :meth:`ParameterServer.get` entry
``gateway.dispatch``        route-handler invocation in :meth:`Gateway.handle`
``frontend.accept``         request admission in :meth:`ServeFrontend.offer`
``frontend.dispatch``       batch hand-off in :meth:`ServeFrontend.poll`
``serve.model.<name>``      per-replica model execution in :meth:`Rafiki.query`
``tune.trial``              per-epoch trial execution in :class:`TuneWorker`
``data.store.put``          chunk upload in :meth:`BlockStore.put`
``data.store.get``          chunk fetch in :meth:`BlockStore.get_chunk`
``data.store.node.<n>.put`` per-datanode chunk upload (kill/slow one datanode)
``data.store.node.<n>.get`` per-datanode chunk fetch
``sql.udf.dispatch``        batched UDF dispatch in the SQL planned executor
==========================  ====================================================
"""

from __future__ import annotations

from repro.chaos.faults import FaultEvent, FaultKind, FaultPlan, FaultRule
from repro.exceptions import (
    ChaosError,
    DroppedResponse,
    InjectedFault,
    RetryExhaustedError,
)
from repro.utils.retry import CircuitBreaker, RetryPolicy

__all__ = [
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "FaultRule",
    "ChaosError",
    "InjectedFault",
    "DroppedResponse",
    "RetryExhaustedError",
    "RetryPolicy",
    "CircuitBreaker",
    "get_plan",
    "set_plan",
    "fire",
    "active",
]

_plan: FaultPlan | None = None


def get_plan() -> FaultPlan | None:
    """The currently installed fault plan (None when chaos is off)."""
    return _plan


def set_plan(plan: FaultPlan | None) -> FaultPlan | None:
    """Install ``plan`` process-wide; returns the previous plan.

    Pass ``None`` to turn fault injection off entirely.
    """
    global _plan
    previous = _plan
    _plan = plan
    return previous


def fire(point: str) -> float:
    """Evaluate the active plan at ``point`` (no-op without a plan).

    Returns injected latency in seconds; raises
    :class:`InjectedFault` / :class:`DroppedResponse` when a fault
    fires. This is the one call instrumented subsystems make.
    """
    if _plan is None:
        return 0.0
    return _plan.fire(point)


class active:
    """Context manager installing a plan for the ``with`` block.

    ::

        with chaos.active(FaultPlan([rule], seed=0)) as plan:
            ...
        assert plan.faults_injected() > 0
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._previous: FaultPlan | None = None

    def __enter__(self) -> FaultPlan:
        """Install the plan; returns it for trace inspection."""
        self._previous = set_plan(self.plan)
        return self.plan

    def __exit__(self, *exc_info) -> None:
        """Restore whatever plan was installed before."""
        set_plan(self._previous)
