"""Greedy batch-size selection (Algorithm 3).

The greedy policy always applies the largest possible batch size: if
the queue holds at least ``max(B)`` requests, dispatch immediately;
otherwise take the largest candidate batch that fits the queue and
dispatch only when the oldest request is about to overrun the SLO
(``c(b) + w(q0) + delta >= tau``), where ``delta`` is the AIMD-style
back-off constant (0.1 tau by default).

When fewer requests than ``min(B)`` are queued, Algorithm 3's line 7
has no valid batch size (``{b in B : b <= len(q)}`` is empty), so the
greedy policy keeps waiting for more arrivals. These *leftover*
requests are the ones the paper observes going overdue when arrivals
are slow; since a delayed response beats a time-out, the implementation
serves them in a padded ``min(B)`` batch once they have already missed
the SLO.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro import telemetry
from repro.core.serve.policy import Dispatch, DispatchPolicy, DispatchView, Wait
from repro.exceptions import ConfigurationError

__all__ = ["GreedyBatcher", "DEFAULT_BATCH_SIZES"]

#: the candidate list of Section 7.2.1.
DEFAULT_BATCH_SIZES = (16, 32, 48, 64)

#: tolerance for the dispatch-threshold comparisons. ``next_deadline``
#: computes the trigger instant as ``arrival + tau - c(b) - delta`` while
#: ``decide`` recomputes the pressure as ``c(b) + (now - arrival) + delta``;
#: the two float expressions can disagree by an ulp, which would make an
#: event-driven caller that sleeps exactly until the trigger spin forever
#: at an instant where ``decide`` still says wait.
_EPS = 1e-9


class GreedyBatcher(DispatchPolicy):
    """Algorithm 3, parameterised by the latency model ``c(b)``.

    ``models`` names the models every batch runs on; a batch is only
    dispatched once all of them are idle. The default names none: the
    batch goes to whichever replica is least loaded, busy or not —
    the front end's behaviour when it is given no policy.
    """

    def __init__(
        self,
        batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES,
        latency: Callable[[int], float] = None,
        tau: float = 0.56,
        backoff: float | None = None,
        models: Sequence[int] = (),
    ):
        if latency is None:
            raise ConfigurationError("a latency model c(b) is required")
        sizes = sorted(set(int(b) for b in batch_sizes))
        if not sizes or sizes[0] <= 0:
            raise ConfigurationError(f"batch sizes must be positive, got {batch_sizes}")
        self.batch_sizes = tuple(sizes)
        self.latency = latency
        self.tau = float(tau)
        #: the AIMD back-off constant delta (default 0.1 tau).
        self.backoff = float(backoff) if backoff is not None else 0.1 * self.tau
        self.models = tuple(models)
        decisions = telemetry.Counter(
            "repro_serve_batcher_decisions_total",
            "Greedy batcher decisions, by action taken.", telemetry.get_registry(),
        )
        self._dispatched = decisions.labels(action="dispatch")
        self._waited = decisions.labels(action="wait")

    @property
    def max_batch(self) -> int:
        return self.batch_sizes[-1]

    @property
    def min_batch(self) -> int:
        return self.batch_sizes[0]

    def fit_batch(self, queue_length: int) -> int | None:
        """Largest candidate batch <= queue length (Algorithm 3 line 7).

        Returns ``None`` when the queue is shorter than every candidate
        — the leftover-requests case.
        """
        best: int | None = None
        for size in self.batch_sizes:
            if size <= queue_length:
                best = size
            else:
                break
        return best

    def decide(self, view: DispatchView) -> Dispatch | Wait:
        """One pass of Algorithm 3's loop body (decision counted)."""
        if not all(view.model_idle(m) for m in self.models):
            return Wait()
        queue, now = view.queue, view.now
        batch = self._ready_batch(queue, now)
        if batch:
            self._dispatched.inc()
            return Dispatch(self.models, batch, min(batch, len(queue)))
        self._waited.inc()
        return Wait(self.next_deadline(queue, now))

    def _ready_batch(self, queue, now: float) -> int:
        """The hardware batch size to dispatch right now, or 0 to wait."""
        if not queue:
            return 0
        if len(queue) >= self.max_batch:
            return self.max_batch
        batch = self.fit_batch(len(queue))
        if batch is None:
            # Leftovers: no candidate batch fits; serve them (padded to
            # min(B)) only once they have already overrun the SLO.
            return self.min_batch if queue.oldest_wait(now) >= self.tau - _EPS else 0
        deadline_pressure = self.latency(batch) + queue.oldest_wait(now) + self.backoff
        return batch if deadline_pressure >= self.tau - _EPS else 0

    def next_deadline(self, queue, now: float) -> float | None:
        """When the pending queue will trigger a deadline dispatch.

        Lets an event-driven server sleep exactly until Algorithm 3's
        line-8 condition (or the leftover grace rule) will first hold,
        instead of polling.
        """
        if not queue:
            return None
        batch = self.fit_batch(len(queue))
        if batch is None:
            trigger = queue.oldest_arrival() + self.tau
        else:
            trigger = queue.oldest_arrival() + self.tau - self.latency(batch) - self.backoff
        return max(trigger, now)
