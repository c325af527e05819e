"""The dispatch decision: the one narrow waist of serving.

:class:`~repro.core.serve.frontend.ServeFrontend` owns queueing,
admission, tenancy, bounded dispatch-retry, wake-ups and accounting.
What it does *not* decide is which requests leave the queue, on which
models, at which batch size — it asks a :class:`DispatchPolicy`:

* ``decide(view)`` sees the state of Section 5.2 through a
  :class:`DispatchView` (the FIFO queue, ``now``, each model's
  ``busy_until``) and answers :class:`Dispatch` or :class:`Wait`;
* ``on_complete(outcome)`` is told the *facts* of every decision as
  soon as they are known (:class:`BatchOutcome`: how many were served,
  how many overran the SLO, their latencies, on which models) — behind
  real models when the batch finishes, behind the simulator's
  deterministic ones when it is dispatched. What to make of them —
  Equation 7 for the actor-critic, nothing for the greedy batcher — is
  the policy's business.

Implementations: :class:`~repro.core.serve.batching.GreedyBatcher`
(Algorithm 3, the default) and the controllers of
:mod:`repro.core.serve.controllers`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

__all__ = ["Dispatch", "Wait", "DispatchView", "BatchOutcome", "DispatchPolicy"]


@dataclass(frozen=True)
class Dispatch:
    """Run the ``take`` oldest requests on ``models`` at ``batch_size``.

    ``models`` are indices into the deployed model list; empty means
    "the whole ensemble, on whichever replica is least loaded".
    """

    models: tuple[int, ...]
    batch_size: int
    take: int
    #: opaque to the loop; handed back in the decision's BatchOutcome.
    token: Any = None


@dataclass(frozen=True)
class Wait:
    """Do nothing now; ask again at ``until`` (or on the next event)."""

    until: float | None = None


@dataclass(frozen=True, slots=True)
class DispatchView:
    """What a policy may read when deciding."""

    #: the FIFO queue: ``len``, ``oldest_arrival()``, ``oldest_wait(now)``,
    #: ``waiting_times(now, length)``.
    queue: Any
    now: float
    #: per model, when its in-flight work ends (empty: nothing is known
    #: to be in flight, every model counts as idle).
    busy_until: Sequence[float] = ()

    def model_idle(self, index: int) -> bool:
        """Whether model ``index`` has no in-flight work right now."""
        return (
            index >= len(self.busy_until)
            or self.busy_until[index] <= self.now + 1e-12
        )


@dataclass(frozen=True)
class BatchOutcome:
    """The facts of one :class:`Dispatch`: what became of its batch.

    A dispatch that never ran (it failed at the ``frontend.dispatch``
    fault point, found no live replica, or its executor raised) reports
    no latencies: ``take == 0``.
    """

    models: tuple[int, ...]
    batch_size: int
    #: when the batch left the queue.
    dispatched: float
    #: arrival-to-completion seconds of each served request, FIFO order.
    latencies: Sequence[float]
    #: how many of them overran the SLO tau.
    overdue: int
    token: Any = None

    @property
    def take(self) -> int:
        """How many requests the batch served."""
        return len(self.latencies)


class DispatchPolicy:
    """Base interface of a dispatch policy."""

    def decide(self, view: DispatchView) -> Dispatch | Wait:
        """Called while requests are queued, until it answers Wait."""
        raise NotImplementedError

    def on_complete(self, outcome: BatchOutcome) -> None:
        """Called exactly once per :class:`Dispatch` this policy issued."""
