"""The serving environment simulator (Section 7.2).

Requests arrive following the sine process, queue FIFO, and are
dispatched by a controller onto the deployed models. Latencies come
from the affine ``c(m, b)`` model, so a batch's completion time — and
therefore every request's overdue status and the Equation-7 reward —
is known at dispatch time, which is what lets the actor-critic receive
immediate rewards.

A dispatch to subset ``v`` at batch size ``b`` occupies each selected
model ``m`` for ``c(m, b)`` seconds; a selected model that is still
busy queues the batch behind its in-flight work (the RL state's
"time left to finish the existing requests dispatched to it"). The
batch completes (and its responses leave) when the slowest selected
model finishes.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import chaos, telemetry
from repro.core.serve.arrival import SineArrival
from repro.core.serve.controllers import Controller, Dispatch, Wait
from repro.core.serve.ensemble import EnsembleScorer
from repro.core.serve.metrics import DispatchRecord, ServingMetrics
from repro.core.serve.request import RequestQueue
from repro.exceptions import ConfigurationError, InjectedFault
from repro.sim import Simulator
from repro.utils.retry import RetryPolicy
from repro.zoo.profiles import ModelProfile

__all__ = ["ServingEnv"]


class ServingEnv:
    """Event-driven serving loop over a simulated clock."""

    def __init__(
        self,
        profiles: Sequence[ModelProfile],
        controller: Controller,
        arrival: SineArrival,
        tau: float,
        batch_sizes: Sequence[int],
        scorer: EnsembleScorer | None = None,
        sim: Simulator | None = None,
        queue_capacity: int | None = 5000,
        arrival_span: float = 0.1,
        beta: float = 1.0,
        reward_shaping: str = "batch",
        shaping_beta: float | None = None,
        dispatch_retry: RetryPolicy | None = None,
    ):
        if not profiles:
            raise ConfigurationError("at least one model is required")
        if scorer is None and len(profiles) > 1:
            raise ConfigurationError("multi-model serving needs an EnsembleScorer")
        self.profiles = list(profiles)
        self.controller = controller
        self.arrival = arrival
        self.tau = float(tau)
        self.batch_sizes = tuple(sorted(set(int(b) for b in batch_sizes)))
        self.scorer = scorer
        self.sim = sim if sim is not None else Simulator()
        self.queue = RequestQueue(capacity=queue_capacity)
        self.metrics = ServingMetrics()
        self.arrival_span = float(arrival_span)
        self.beta = float(beta)
        if reward_shaping not in ("batch", "per_request"):
            raise ConfigurationError(
                f"reward_shaping must be 'batch' or 'per_request', got {reward_shaping!r}"
            )
        #: What the *learner* sees. "batch" is Equation 7 normalised by
        #: max(B); "per_request" divides by the served count instead,
        #: which keeps the ensemble-accuracy signal at constant scale
        #: across arrival phases (metrics always record Equation 7).
        self.reward_shaping = reward_shaping
        #: beta used in the learner's shaped reward only (defaults to
        #: ``beta``); raising it restores the throughput incentive that
        #: per-request normalisation weakens.
        self.shaping_beta = float(shaping_beta) if shaping_beta is not None else self.beta
        self.busy_until = [0.0] * len(self.profiles)
        self._wake_at: float | None = None
        self._max_batch = self.batch_sizes[-1]
        #: policy for re-dispatching a batch whose execution failed at
        #: the ``serve.dispatch`` fault point; after ``max_attempts``
        #: consecutive failures the batch is shed (counted as dropped)
        #: so one poisoned batch cannot stall the whole queue.
        self.dispatch_retry = (
            dispatch_retry
            if dispatch_retry is not None
            else RetryPolicy(max_attempts=4, base_delay=0.005, max_delay=0.1, jitter=0.0)
        )
        self._dispatch_failures = 0

    # ------------------------------------------------------------------
    # views used by controllers
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def model_idle(self, index: int) -> bool:
        """Whether model ``index`` has no in-flight work right now."""
        return self.busy_until[index] <= self.now + 1e-12

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, horizon: float) -> ServingMetrics:
        """Generate arrivals for ``horizon`` seconds and drain the queue."""
        self.sim.spawn(self._arrival_process(horizon))
        # Slack after the horizon lets in-flight batches finish and the
        # final deadline-triggered dispatches fire.
        self.sim.run(until=self.sim.now + horizon + 10.0 * self.tau)
        return self.metrics

    def _arrival_process(self, horizon: float):
        end = self.sim.now + horizon
        while self.sim.now < end:
            count = self.arrival.count(self.sim.now, self.arrival_span)
            if count:
                accepted = self.queue.push(self.sim.now, count)
                self.metrics.record_arrivals(self.sim.now, accepted)
                if count > accepted:
                    self._count_dropped(count - accepted, reason="queue_full")
                self.metrics.dropped = self.queue.total_dropped
                self._update_queue_gauge()
                self._maybe_decide()
            yield self.arrival_span

    # ------------------------------------------------------------------
    # decision + dispatch
    # ------------------------------------------------------------------

    def _maybe_decide(self) -> None:
        # Controllers are consulted whenever requests are queued; each
        # controller decides for itself whether its models can act (an
        # RL pending action may fire a deadline dispatch even while the
        # models are momentarily finishing earlier work).
        while self.queue:
            decision = self.controller.decide(self)
            if isinstance(decision, Dispatch):
                if not self._dispatch(decision):
                    # Failed dispatch: the requests were re-queued (or
                    # shed) and a retry wake-up is scheduled; stop
                    # deciding at this instant to let backoff apply.
                    return
            elif isinstance(decision, Wait):
                if decision.until is not None:
                    self._schedule_wake(decision.until)
                return
            else:  # pragma: no cover - defensive
                raise ConfigurationError(f"bad controller decision: {decision!r}")

    def _count_dropped(self, count: int, reason: str) -> None:
        telemetry.get_registry().counter(
            "repro_serve_requests_dropped_total",
            "Requests dropped, by reason: rejected by a full queue or shed "
            "after repeated dispatch failures.",
        ).inc(count, reason=reason)

    def _update_queue_gauge(self) -> None:
        telemetry.get_registry().gauge(
            "repro_serve_queue_depth", "Requests currently waiting in the queue."
        ).set(len(self.queue))

    def _schedule_wake(self, when: float) -> None:
        when = max(when, self.now + 1e-6)
        if self._wake_at is not None and self._wake_at <= when + 1e-9:
            return
        self._wake_at = when
        self.sim.schedule(when - self.now, self._on_wake, when)

    def _on_wake(self, token: float) -> None:
        if self._wake_at == token:
            self._wake_at = None
        self._maybe_decide()

    def _dispatch(self, decision: Dispatch) -> bool:
        """Execute one dispatch; returns whether the batch was served.

        The batch passes through the ``serve.dispatch`` fault point: an
        injected exception/drop re-queues the in-flight requests at the
        front of the queue and schedules a backoff retry (the batcher's
        resubmission path); injected latency stretches the batch's
        completion time instead.
        """
        subset = tuple(sorted(decision.subset))
        if not subset:
            raise ConfigurationError("dispatch must select at least one model")
        take = min(decision.take, len(self.queue))
        if take <= 0:
            return True
        arrivals = self.queue.pop_oldest(take)
        self._update_queue_gauge()
        try:
            injected_latency = chaos.fire("serve.dispatch")
        except InjectedFault:
            self._dispatch_failures += 1
            telemetry.get_registry().counter(
                "repro_serve_dispatch_retries_total",
                "Dispatched batches that failed and were resubmitted.",
            ).inc()
            if self._dispatch_failures >= self.dispatch_retry.max_attempts:
                # Shed the batch: repeated failures must not stall the
                # queue behind one poisoned dispatch.
                self.queue.total_dropped += take
                self.metrics.dropped = self.queue.total_dropped
                self._count_dropped(take, reason="dispatch_failed")
                self._dispatch_failures = 0
                self._schedule_wake(self.now + self.dispatch_retry.base_delay)
                return False
            self.queue.push_front(arrivals)
            self._update_queue_gauge()
            self._schedule_wake(
                self.now + self.dispatch_retry.delay(self._dispatch_failures - 1)
            )
            return False
        self._dispatch_failures = 0
        completion = self.now
        for m in subset:
            duration = self.profiles[m].inference_time(decision.batch_size) + injected_latency
            start = max(self.busy_until[m], self.now)
            self.busy_until[m] = start + duration
            completion = max(completion, self.busy_until[m])
            self.sim.schedule(self.busy_until[m] - self.now, self._on_model_free)
        latencies = completion - arrivals
        self.metrics.record_latencies(latencies)
        overdue = int(np.sum(latencies > self.tau))
        accuracy = (
            self.scorer.accuracy(subset)
            if self.scorer is not None
            else self.profiles[subset[0]].top1_accuracy
        )
        reward = accuracy * (take - self.beta * overdue) / self._max_batch
        if self.reward_shaping == "per_request":
            shaped = accuracy * (take - self.shaping_beta * overdue) / take
        else:
            shaped = accuracy * (take - self.shaping_beta * overdue) / self._max_batch
        self.metrics.record_dispatch(
            DispatchRecord(
                time=self.now,
                served=take,
                overdue=overdue,
                batch_size=decision.batch_size,
                subset=subset,
                accuracy=accuracy,
                reward=reward,
                exceeding_time_sum=float(np.sum(np.maximum(latencies - self.tau, 0.0))),
            )
        )
        self.controller.notify_reward(shaped)
        return True

    def _on_model_free(self) -> None:
        self._maybe_decide()
