"""The high-concurrency serving front end (admission + backpressure).

The paper's inference service is the subsystem that must face "millions
of users" (Sections 6-7): many concurrent clients hammering one
deployed ensemble. This module turns the synchronous gateway→ensemble
call chain into an event-loop front end with explicit queueing and
flow control, in three layers:

* :class:`ServeFrontend` — the *sans-io core* and the one serving
  loop: a pure, clock-driven state machine that admits or sheds each
  request (bounded accept queue, deadline-aware load shedding,
  per-client token-bucket rate limits), asks its
  :class:`~repro.core.serve.policy.DispatchPolicy` which of the
  admitted backlog to dispatch on which models (the SLO-aware
  :class:`~repro.core.serve.batching.GreedyBatcher` unless told
  otherwise; the Section 5 controllers plug in here), retries or sheds
  failed dispatches, and accounts every outcome once. Because every
  method takes ``now`` explicitly, the same core runs bit-identically
  under a real clock, a :class:`~repro.telemetry.ManualClock`, or the
  discrete-event :class:`~repro.sim.Simulator` (see
  :mod:`repro.core.serve.loadgen`).
* :class:`AsyncServeFrontend` — the :mod:`asyncio` shell: concurrent
  clients ``await submit(...)``; one cooperative dispatcher task drains
  the core, executes batches against a pluggable executor (the deployed
  ensemble), and resolves the per-request futures. Shed requests fail
  fast with :class:`~repro.exceptions.RequestShedError` instead of
  queueing without bound — that is the backpressure contract.
* :class:`ScalingAdvisor` — autoscaling hints derived from the core's
  *live* queue depth and rolling p95 latency, with fixed watermarks and
  a cooldown so the hint does not flap.

Fault points: ``frontend.accept`` fires on every admission attempt and
``frontend.dispatch`` on every batch hand-off, so chaos plans can
exercise shedding and the bounded dispatch-retry path deterministically
(see :mod:`repro.chaos`).
"""

from __future__ import annotations

import asyncio
import inspect
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Sequence

import numpy as np

from repro import chaos, telemetry
from repro.core.serve.batching import DEFAULT_BATCH_SIZES, GreedyBatcher
from repro.core.serve.metrics import BATCH_SIZE_BUCKETS, LATENCY_BUCKETS
from repro.core.serve.policy import BatchOutcome, Dispatch, DispatchPolicy, DispatchView
from repro.exceptions import (
    ConfigurationError,
    InjectedFault,
    RequestShedError,
)
from repro.tenancy import DEFAULT_TENANT
from repro.utils.reservoir import Reservoir
from repro.utils.retry import RetryPolicy

__all__ = [
    "TokenBucket",
    "FrontendConfig",
    "FrontendRequest",
    "PendingQueue",
    "DispatchPlan",
    "ServeFrontend",
    "AsyncServeFrontend",
    "ScalingAdvisor",
]

#: ScalingAdvisor: scale out above either high watermark (queued
#: requests, p95 seconds), in below both low ones ...
_HIGH_DEPTH, _HIGH_P95 = 256, 0.5
_LOW_DEPTH, _LOW_P95 = 16, 0.2
#: ... and change the hint at most once per this many seconds.
_COOLDOWN = 5.0


class TokenBucket:
    """A deterministic token bucket (the per-client rate limiter).

    ``rate`` tokens accrue per second up to ``burst``, one second of
    rate (at least one token); each admitted request costs one token.
    Refill is computed lazily from the timestamps handed in by the
    caller, so the bucket is a pure function of its call sequence — no
    wall clock, no background task.
    """

    __slots__ = ("rate", "burst", "tokens", "_last")

    def __init__(self, rate: float):
        if not rate > 0:
            raise ConfigurationError(f"rate must be > 0, got {rate}")
        self.rate = float(rate)
        self.burst = max(1.0, self.rate)
        self.tokens = self.burst
        self._last: float | None = None

    def _refill(self, now: float) -> None:
        if self._last is not None and now > self._last:
            self.tokens = min(self.burst, self.tokens + (now - self._last) * self.rate)
        if self._last is None or now > self._last:
            self._last = now

    def peek(self, now: float) -> float:
        """0.0 if a token is available at ``now``, else the ``retry_after``
        hint: seconds until one will have accrued.

        Refills but never spends: the admission pipeline tests every
        predicate first, then takes its token with ``tokens -= 1.0``.
        """
        self._refill(now)
        if self.tokens + 1e-12 >= 1.0:
            return 0.0
        return (1.0 - self.tokens) / self.rate

    def available(self, now: float) -> float:
        """Tokens available at ``now`` (after lazy refill)."""
        self._refill(now)
        return self.tokens


@dataclass(frozen=True)
class FrontendConfig:
    """Knobs of the serving front end (see docs/SERVING.md).

    ``latency`` is the per-batch service model ``c(b)`` (the one the
    admission estimate and the default
    :class:`~repro.core.serve.batching.GreedyBatcher` plan with);
    everything else bounds how much work the front end will accept.
    """

    #: the per-batch latency model c(b), in seconds.
    latency: Callable[[int], float]
    #: the SLO deadline tau, in seconds (Section 7.2's 0.56 default).
    tau: float = 0.56
    #: candidate hardware batch sizes (the default policy's, and the
    #: largest is the drain unit of the admission estimate).
    batch_sizes: Sequence[int] = DEFAULT_BATCH_SIZES
    #: bounded accept queue: requests beyond this are shed (queue_full).
    max_queue: int = 1024
    #: admit only if the predicted queueing delay fits inside
    #: ``tau * deadline_slack`` (deadline-aware load shedding); raise
    #: above 1.0 to trade tail latency for fewer sheds.
    deadline_slack: float = 1.0
    #: per-client token-bucket rate (requests/second); None disables
    #: rate limiting entirely. A bucket's burst is one second of rate.
    rate_limit: float | None = None
    #: per-*tenant* token-bucket rates (tenant name -> requests/second),
    #: layered over the per-client buckets: a listed tenant's aggregate
    #: traffic (any number of clients) cannot exceed its rate. Tenants
    #: not listed have no tenant bucket.
    tenant_rate_limits: dict[str, float] | None = None
    #: cap on the fraction of ``max_queue`` one tenant may occupy
    #: (0 < share <= 1); None disables the cap. With the cap, a
    #: flooding tenant fills only its slice of the accept queue and
    #: other tenants keep admitting.
    tenant_max_queue_share: float | None = None
    #: bounded retry schedule for batches that fail at the
    #: ``frontend.dispatch`` fault point; after ``max_attempts``
    #: consecutive failures the batch is shed (dispatch_failed).
    dispatch_retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(
            max_attempts=4, base_delay=0.005, max_delay=0.1, jitter=0.0
        )
    )

    def __post_init__(self):
        if not (0.0 < self.tau < math.inf):
            raise ConfigurationError(f"tau must be finite and > 0, got {self.tau}")
        if not self.max_queue >= 1:  # NaN too
            raise ConfigurationError(f"max_queue must be >= 1, got {self.max_queue}")
        if not self.deadline_slack > 0:  # inf is fine: no deadline shedding
            raise ConfigurationError(
                f"deadline_slack must be > 0, got {self.deadline_slack}"
            )
        if self.rate_limit is not None and not self.rate_limit > 0:  # NaN too
            raise ConfigurationError(
                f"rate_limit must be > 0 (or None), got {self.rate_limit}"
            )
        for tenant, rate in (self.tenant_rate_limits or {}).items():
            if not rate > 0:
                raise ConfigurationError(
                    f"tenant_rate_limits[{tenant!r}] must be > 0, got {rate}"
                )
        if self.tenant_max_queue_share is not None and not (
            0.0 < self.tenant_max_queue_share <= 1.0
        ):
            raise ConfigurationError(
                "tenant_max_queue_share must be in (0, 1] (or None), "
                f"got {self.tenant_max_queue_share}"
            )


@dataclass(slots=True)
class FrontendRequest:
    """One admitted request moving through the front end."""

    seq: int
    client_id: str
    payload: Any
    arrival: float
    deadline: float
    #: owning tenant, for the tenant-scoped limiter and accounting.
    tenant: str = DEFAULT_TENANT
    #: terminal state: set exactly once by complete()/shed.
    completed_at: float | None = None
    shed_reason: str | None = None
    #: optional hook invoked when the request is shed *after* admission
    #: (dispatch failure, shutdown); shells use it to fail futures or
    #: wake simulated clients.
    on_shed: Callable[["FrontendRequest", RequestShedError], None] | None = None
    #: the asyncio future the async shell resolves (None elsewhere).
    future: Any = None

    @property
    def done(self) -> bool:
        """Whether the request reached a terminal state."""
        return self.completed_at is not None or self.shed_reason is not None


class PendingQueue:
    """FIFO queue of admitted :class:`FrontendRequest` objects.

    Requests are processed strictly first-in-first-out (Section 5: a
    delayed response beats a 'time out' error). This is the queue a
    :class:`~repro.core.serve.policy.DispatchPolicy` reads (``__len__``,
    ``oldest_arrival``, ``oldest_wait``, ``waiting_times``); it carries
    whole request objects so responses can be routed back to their
    clients.
    """

    def __init__(self):
        self._requests: deque[FrontendRequest] = deque()
        self._by_tenant: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._requests)

    def __bool__(self) -> bool:
        return bool(self._requests)

    def count(self, tenant: str) -> int:
        """Queued requests currently owned by ``tenant``."""
        return self._by_tenant.get(tenant, 0)

    def append(self, request: FrontendRequest) -> None:
        """Enqueue one admitted request at the tail."""
        self._requests.append(request)
        self._by_tenant[request.tenant] = self._by_tenant.get(request.tenant, 0) + 1

    def push_front(self, requests: Sequence[FrontendRequest]) -> None:
        """Re-queue already-admitted requests at the head (FIFO order)."""
        for request in reversed(requests):
            self._requests.appendleft(request)
            self._by_tenant[request.tenant] = self._by_tenant.get(request.tenant, 0) + 1

    def pop(self, count: int) -> list[FrontendRequest]:
        """Dequeue the ``count`` oldest requests."""
        count = min(count, len(self._requests))
        popped = [self._requests.popleft() for _ in range(count)]
        for request in popped:
            self._by_tenant[request.tenant] -= 1
        return popped

    def oldest_arrival(self) -> float:
        """Arrival time of the head request (the batcher's ``q[0]``)."""
        return self._requests[0].arrival

    def oldest_wait(self, now: float) -> float:
        """``w(q0)``: how long the head request has been waiting."""
        return now - self._requests[0].arrival

    def waiting_times(self, now: float, length: int) -> np.ndarray:
        """Waiting times of the ``length`` oldest requests, zero-padded.

        This is the queue-status feature vector of Section 5.2.
        """
        out = np.zeros(length, dtype=np.float64)
        for i, request in enumerate(islice(self._requests, length)):
            out[i] = now - request.arrival
        return out


@dataclass
class DispatchPlan:
    """One batch the core has committed to dispatch.

    The shell (async or simulated) executes it — the core has already
    charged the ``frontend.dispatch`` fault point, so ``extra_latency``
    carries any injected slow-down the execution must absorb.
    """

    requests: list[FrontendRequest]
    batch_size: int
    extra_latency: float = 0.0
    #: the models the policy chose (empty: the whole ensemble).
    models: tuple[int, ...] = ()
    #: when the batch left the queue.
    dispatched: float = 0.0
    #: when the pool ``poll`` was given will have finished it.
    completion: float | None = None
    #: the policy's own tag for this decision.
    token: Any = None

    @property
    def take(self) -> int:
        """How many requests ride in this batch."""
        return len(self.requests)


class ServeFrontend:
    """Sans-io core: admission control + policy-driven batch dispatch.

    Every method takes ``now`` explicitly; the core never reads a
    clock, sleeps, or touches an event loop. Shells drive it:

    * ``offer(client, payload, now)`` — admit or raise
      :class:`~repro.exceptions.RequestShedError`;
    * ``poll(now)`` — collect the batches the dispatch policy wants
      dispatched right now (call it after every offer or burst of
      offers, and whenever a batch completes);
    * ``next_wake(now)`` — when to poll again if nothing else happens;
    * ``complete(plan, now)`` / ``fail(plan, now, reason)`` — account a
      finished / abandoned batch and tell the policy.
    """

    def __init__(
        self,
        config: FrontendConfig,
        capacity: Callable[[float], tuple[int, float]] | None = None,
        policy: DispatchPolicy | None = None,
    ):
        self.config = config
        #: who decides what leaves the queue (default: Algorithm 3 on
        #: ``config.latency``, any replica, no idle check).
        self.policy = policy if policy is not None else GreedyBatcher(
            config.batch_sizes, latency=config.latency, tau=config.tau
        )
        #: live backend capacity hook: ``capacity(now) -> (live_replicas,
        #: head_delay_seconds)``; the admission estimate divides queue
        #: drain across live replicas and adds the head-of-line delay.
        self.capacity = capacity if capacity is not None else (lambda now: (1, 0.0))
        self.pending = PendingQueue()
        self._max_batch = max(config.batch_sizes)
        self._rate_limited = config.rate_limit is not None or bool(config.tenant_rate_limits)
        self._buckets: dict[str, TokenBucket] = {}
        self._bucket_sweep_at = 1024
        self._tenant_buckets: dict[str, TokenBucket] = {}
        self._seq = 0
        self._dispatch_failures = 0
        self._retry_at: float | None = None
        self._wait_until: float | None = None
        self._latency_sample = Reservoir(capacity=4096)
        #: per tenant: admissions and terminal outcomes by reason
        #: ("served" included) — the one table every total is read off.
        self.tenant_outcomes: dict[str, dict[str, int]] = {}
        #: admissions already in the telemetry registry, per tenant: the
        #: rest are counted once per ``poll`` (so once per arrival
        #: burst), not once per request.
        self._counted: dict[str, int] = {}
        registry = telemetry.get_registry()
        self._requests = telemetry.Counter(
            "repro_serve_frontend_requests_total",
            "Front-end admission outcomes, by client verdict and tenant.", registry,
        )
        self._shed_count = telemetry.Counter(
            "repro_serve_frontend_shed_total",
            "Requests refused by admission control, by reason and tenant.", registry,
        )
        self._retries = telemetry.Counter(
            "repro_serve_frontend_dispatch_retries_total",
            "Planned batches that failed dispatch and were retried.", registry,
        ).labels()
        self._overdue = telemetry.Counter(
            "repro_serve_frontend_overdue_total",
            "Served requests that overran the SLO tau.", registry,
        ).labels()
        self._batch_sizes = telemetry.Histogram(
            "repro_serve_batch_size",
            "Hardware batch size chosen per dispatch.", registry,
            buckets=BATCH_SIZE_BUCKETS,
        ).labels()
        self._latencies = telemetry.Histogram(
            "repro_serve_frontend_latency_seconds",
            "Per-request latency from arrival to batch completion.", registry,
            buckets=LATENCY_BUCKETS,
        )
        registry.gauge(
            "repro_serve_frontend_queue_depth",
            "Requests admitted and waiting in the front-end queue.",
        ).set_function(self, lambda frontend: len(frontend.pending))
        registry.gauge(
            "repro_serve_frontend_latency_p95_seconds",
            "Rolling p95 of front-end request latency.",
        ).set_function(self, lambda frontend: frontend.latency_quantile(0.95))

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------

    def _drain_time(self, now: float, batches: int = 1) -> tuple[float, float]:
        """``(head-of-line delay, seconds)``: the delay the capacity hook
        reports, and how long ``batches`` full batches take spread over
        the live replicas."""
        live, head_delay = self.capacity(now)
        return head_delay, batches * self.config.latency(self._max_batch) / max(1, int(live))

    def estimated_delay(self, now: float) -> float:
        """Predicted queueing delay a request admitted at ``now`` faces.

        A conservative M/D/c-style estimate: the backlog drains in
        ``ceil((depth + 1) / max_batch)`` batches of ``c(max_batch)``
        seconds each, spread across the live replicas, behind whatever
        head-of-line delay the capacity hook reports.
        """
        batches = math.ceil((len(self.pending) + 1) / self._max_batch)
        head_delay, drain = self._drain_time(now, batches)
        return max(0.0, head_delay) + drain

    def _client_bucket(self, client_id: str, now: float) -> TokenBucket:
        bucket = self._buckets.get(client_id)
        if bucket is None:
            if len(self._buckets) >= self._bucket_sweep_at:
                # Client ids are outside input. A bucket refilled to its
                # burst is indistinguishable from a fresh one: drop those,
                # and sweep again when the map has doubled.
                self._buckets = {
                    client: kept for client, kept in self._buckets.items()
                    if kept.available(now) < kept.burst
                }
                self._bucket_sweep_at = max(1024, 2 * len(self._buckets))
            bucket = self._buckets[client_id] = TokenBucket(self.config.rate_limit)
        return bucket

    def _peek_buckets(self, client_id: str, now: float, tenant: str) -> list[TokenBucket]:
        """The tenant's and the client's bucket, each with a token to spare."""
        buckets = []
        tenant_rate = (self.config.tenant_rate_limits or {}).get(tenant)
        if tenant_rate is not None:
            bucket = self._tenant_buckets.get(tenant)
            if bucket is None:
                bucket = self._tenant_buckets[tenant] = TokenBucket(tenant_rate)
            wait = bucket.peek(now)
            if wait > 0.0:
                raise self._shed(
                    "tenant_rate_limit", wait, now, client_id=client_id, tenant=tenant
                )
            buckets.append(bucket)
        if self.config.rate_limit is not None:
            bucket = self._client_bucket(client_id, now)
            wait = bucket.peek(now)
            if wait > 0.0:
                raise self._shed(
                    "rate_limit", wait, now, client_id=client_id, tenant=tenant
                )
            buckets.append(bucket)
        return buckets

    def offer(
        self,
        client_id: str,
        payload: Any,
        now: float,
        tenant: str = DEFAULT_TENANT,
    ) -> FrontendRequest:
        """Admit one request or shed it with a ``retry_after`` hint.

        The admission pipeline, in order: the ``frontend.accept`` fault
        point (plus the tenant-scoped
        ``frontend.accept.tenant.<tenant>`` point, so chaos plans can
        target one tenant's traffic), the per-tenant token bucket, the
        per-client token bucket, the tenant queue-share cap, the
        bounded accept queue, and the deadline-aware shed test. Raises
        :class:`~repro.exceptions.RequestShedError` on any refusal.
        """
        config = self.config
        arrival = now
        if chaos.get_plan() is not None:
            try:
                arrival += chaos.fire("frontend.accept")
                arrival += chaos.fire(f"frontend.accept.tenant.{tenant}")
            except InjectedFault as exc:
                raise self._shed(
                    "fault", 0.1 * config.tau, now, detail=str(exc), tenant=tenant
                ) from exc
        # Peek both buckets first and only debit them once every other
        # admission check has passed: a request shed later in the
        # pipeline must not consume a token, or one throttled client
        # (or a full queue) would drain its tenant's bucket and shed
        # well-behaved co-tenant clients as tenant_rate_limit.
        buckets = self._peek_buckets(client_id, now, tenant) if self._rate_limited else ()
        pending = self.pending
        if config.tenant_max_queue_share is not None:
            cap = max(1, int(config.max_queue * config.tenant_max_queue_share))
            if pending.count(tenant) >= cap:
                raise self._shed(
                    "tenant_queue_full", self._drain_time(now)[1], now,
                    client_id=client_id, tenant=tenant,
                )
        if len(pending) >= config.max_queue:
            raise self._shed(
                "queue_full", self._drain_time(now)[1], now,
                client_id=client_id, tenant=tenant,
            )
        budget = config.tau * config.deadline_slack
        if budget != math.inf:
            delay = self.estimated_delay(now)
            if delay > budget:
                raise self._shed(
                    "deadline", delay - budget, now, client_id=client_id, tenant=tenant
                )
        for bucket in buckets:
            bucket.tokens -= 1.0
        self._seq += 1
        request = FrontendRequest(
            self._seq, client_id, payload, arrival, arrival + config.tau, tenant
        )
        pending.append(request)
        self._tenant_account(tenant, "admitted")
        return request

    def _tenant_account(self, tenant: str, outcome: str, count: int = 1) -> None:
        per_tenant = self.tenant_outcomes.setdefault(tenant, {})
        per_tenant[outcome] = per_tenant.get(outcome, 0) + count

    def _shed(
        self,
        reason: str,
        retry_after: float,
        now: float,
        client_id: str = "",
        detail: str = "",
        tenant: str = DEFAULT_TENANT,
    ) -> RequestShedError:
        """Account one shed and build the error the caller raises."""
        self._tenant_account(tenant, reason)
        self._requests.inc(outcome="shed", tenant=tenant)
        self._shed_count.inc(reason=reason, tenant=tenant)
        return RequestShedError(reason, max(retry_after, 0.0), detail=detail)

    # ------------------------------------------------------------------
    # dispatch planning
    # ------------------------------------------------------------------

    def poll(self, now: float, pool=None) -> list[DispatchPlan]:
        """Batches the dispatch policy wants dispatched at ``now``.

        The policy is asked until it answers ``Wait``. Each batch it
        dispatches passes the ``frontend.dispatch`` fault point:
        injected latency rides along in the plan, an injected
        exception re-queues the batch and arms a bounded backoff retry
        — after ``dispatch_retry.max_attempts`` consecutive failures
        the batch is shed so one poisoned dispatch cannot wedge the
        queue.

        With a ``pool`` (a :class:`~repro.core.serve.loadgen.ReplicaPool`)
        the policy sees its ``busy_until`` and every planned batch is
        assigned to it at once — so the next decision of this same poll
        finds those models busy — and carries its ``completion`` time;
        with no live replica the batch is shed instead. The simulated
        models being deterministic, the batch's outcome is known then,
        and the policy is told then: a policy that had to wait out a
        backlog to learn that it is adding to it learns too late (the
        shell still accounts the batch when it completes).
        """
        plans: list[DispatchPlan] = []
        if self._retry_at is not None and now + 1e-12 < self._retry_at:
            return plans
        self._retry_at = self._wait_until = None
        retry = self.config.dispatch_retry
        view = DispatchView(self.pending, now, pool.busy_until if pool is not None else ())
        while self.pending:
            decision = self.policy.decide(view)
            if not isinstance(decision, Dispatch):
                self._wait_until = decision.until
                break
            if decision.take <= 0:
                raise ConfigurationError(f"bad dispatch decision: {decision!r}")
            plan = DispatchPlan(
                self.pending.pop(decision.take), decision.batch_size,
                models=decision.models, dispatched=now, token=decision.token,
            )
            try:
                plan.extra_latency = chaos.fire("frontend.dispatch")
            except InjectedFault:
                self._dispatch_failures += 1
                self._retries.inc()
                if self._dispatch_failures >= retry.max_attempts:
                    self.fail(plan, now, "dispatch_failed")
                    self._dispatch_failures = 0
                    self._retry_at = now + retry.base_delay
                else:
                    self.pending.push_front(plan.requests)
                    self.policy.on_complete(self._outcome(plan, None))
                    self._retry_at = now + retry.delay(self._dispatch_failures - 1)
                break
            self._dispatch_failures = 0
            if pool is not None:
                if not plan.models and pool.live() == 0:
                    self.fail(plan, now, "dispatch_failed")
                    continue
                plan.completion = pool.assign(
                    now, plan.batch_size, plan.extra_latency, plan.models
                )
                self.policy.on_complete(self._outcome(plan, plan.completion))
            plans.append(plan)
        self._count_telemetry(plans)
        return plans

    def _count_telemetry(self, plans: list[DispatchPlan]) -> None:
        for tenant, outcomes in self.tenant_outcomes.items():
            fresh = outcomes.get("admitted", 0) - self._counted.get(tenant, 0)
            if fresh:
                self._requests.inc(fresh, outcome="admitted", tenant=tenant)
                self._counted[tenant] = outcomes["admitted"]
        for plan in plans:
            self._batch_sizes.observe(plan.batch_size)

    def next_wake(self, now: float) -> float | None:
        """Earliest future instant at which ``poll`` could act.

        The minimum of the ``Wait(until)`` the policy ended the last
        poll with and any armed dispatch-retry backoff; None when
        neither is set. Anything offered since the last poll makes the
        answer stale — poll after offering.
        """
        candidates = [t for t in (self._wait_until, self._retry_at) if t is not None]
        return max(min(candidates), now) if candidates else None

    # ------------------------------------------------------------------
    # terminal accounting
    # ------------------------------------------------------------------

    def _outcome(self, plan: DispatchPlan, completed: float | None) -> BatchOutcome:
        """The facts of ``plan`` finishing at ``completed`` (None: it never ran)."""
        latencies = (
            [completed - r.arrival for r in plan.requests] if completed is not None else ()
        )
        tau = self.config.tau
        return BatchOutcome(
            plan.models, plan.batch_size, plan.dispatched, latencies,
            sum(latency > tau for latency in latencies), plan.token,
        )

    def complete(self, plan: DispatchPlan, now: float) -> BatchOutcome:
        """Account a finished batch (latencies, SLO misses, gauges).

        Returns the batch's facts, and tells the policy unless ``poll``
        already could (see there).
        """
        requests = plan.requests
        outcome = self._outcome(plan, now)
        latencies, overdue = outcome.latencies, outcome.overdue
        for request in requests:
            request.completed_at = now
        for tenant, count in Counter(r.tenant for r in requests).items():
            self._tenant_account(tenant, "served", count)
        self._latency_sample.add_many(latencies)
        self._latencies.observe_many(latencies)
        if overdue:
            self._overdue.inc(overdue)
        if plan.completion is None:
            self.policy.on_complete(outcome)
        return outcome

    def fail(self, plan: DispatchPlan, now: float, reason: str) -> None:
        """Account a planned batch that never ran: shed it, tell the policy."""
        self.shed_requests(plan.requests, now, reason)
        self.policy.on_complete(self._outcome(plan, None))

    def shed_requests(
        self, requests: Sequence[FrontendRequest], now: float, reason: str
    ) -> None:
        """Shed already-admitted requests (dispatch failure, shutdown).

        Stamps each request's terminal state, accounts the shed, and
        invokes the per-request ``on_shed`` hook so shells can fail
        futures / wake clients.
        """
        for request in requests:
            request.shed_reason = reason
            error = self._shed(
                reason, self.config.dispatch_retry.base_delay, now,
                client_id=request.client_id, tenant=request.tenant,
            )
            if request.on_shed is not None:
                request.on_shed(request, error)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def outcomes(self) -> dict[str, int]:
        """Terminal-outcome counts over every tenant, by reason ("served" included)."""
        totals = sum(map(Counter, self.tenant_outcomes.values()), Counter())
        del totals["admitted"]
        return totals

    @property
    def admitted(self) -> int:
        """Requests admitted so far."""
        return sum(counts.get("admitted", 0) for counts in self.tenant_outcomes.values())

    @property
    def served(self) -> int:
        """Requests served to completion so far."""
        return self.outcomes.get("served", 0)

    @property
    def shed(self) -> int:
        """Requests refused or abandoned, across all shed reasons."""
        return sum(v for k, v in self.outcomes.items() if k != "served")

    def latency_quantile(self, q: float) -> float:
        """Rolling latency quantile (reservoir-sampled), in seconds."""
        return self._latency_sample.quantile(q) if len(self._latency_sample) else 0.0


class ScalingAdvisor:
    """Autoscaling hints off the front end it advises.

    Reads the queue depth and the rolling p95 latency of the
    :class:`ServeFrontend` it is handed (the same two numbers the front
    end's gauges show) and emits a hint: +1 scale out (depth above
    ``_HIGH_DEPTH`` or p95 above ``_HIGH_P95``), -1 scale in (depth below
    ``_LOW_DEPTH`` and p95 below ``_LOW_P95``), 0 hold. The watermarks
    plus a ``_COOLDOWN`` give hysteresis so a sine-wave load does not
    thrash the replica count; every emitted hint lands in the
    ``repro_serve_frontend_scale_hint`` gauge.
    """

    def __init__(self):
        self._last_change: float | None = None
        self._hint = telemetry.Gauge(
            "repro_serve_frontend_scale_hint",
            "Latest autoscaling hint (+1 out, -1 in, 0 hold).", telemetry.get_registry(),
        )

    def evaluate(self, frontend: ServeFrontend, now: float) -> int:
        """The current hint for ``frontend``: +1 (scale out), -1 (scale in), or 0."""
        depth = len(frontend.pending)
        p95 = frontend.latency_quantile(0.95)
        if depth > _HIGH_DEPTH or p95 > _HIGH_P95:
            hint = 1
        elif depth < _LOW_DEPTH and p95 < _LOW_P95:
            hint = -1
        else:
            hint = 0
        if hint != 0:
            if self._last_change is not None and now - self._last_change < _COOLDOWN:
                hint = 0
            else:
                self._last_change = now
        self._hint.set(hint)
        return hint


class AsyncServeFrontend:
    """The :mod:`asyncio` shell over :class:`ServeFrontend`.

    Concurrent clients ``await submit(payload, client_id)``; a single
    cooperative dispatcher task drains the core — executing each
    planned batch against ``executor(payloads, batch_size)`` (sync or
    async; a batch whose policy chose a model subset is executed as
    ``executor(payloads, batch_size, models)``) and resolving the
    per-request futures. Admission refusals
    surface to the caller immediately as
    :class:`~repro.exceptions.RequestShedError` — callers never queue
    beyond what the core admits, which is the backpressure contract.

    Use as an async context manager (``async with frontend: ...``) or
    call :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(
        self,
        config: FrontendConfig,
        executor: Callable[..., Any],
        capacity: Callable[[float], tuple[int, float]] | None = None,
        policy: DispatchPolicy | None = None,
    ):
        self.core = ServeFrontend(config, capacity=capacity, policy=policy)
        self.executor = executor
        self._executor_errors = telemetry.Counter(
            "repro_serve_frontend_executor_errors_total",
            "Batches whose executor raised; their requests fail.", telemetry.get_registry(),
        ).labels()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._wake: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._running = False

    def _now(self) -> float:
        return self._loop.time()

    async def start(self) -> None:
        """Start the dispatcher task on the running event loop."""
        if self._running:
            return
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._running = True
        self._task = self._loop.create_task(self._dispatch_loop())

    async def stop(self) -> None:
        """Stop the dispatcher; unanswered requests are shed (shutdown)."""
        if not self._running:
            return
        self._running = False
        self._wake.set()
        await self._task
        leftovers = self.core.pending.pop(len(self.core.pending))
        if leftovers:
            self.core.shed_requests(leftovers, self._now(), "shutdown")

    async def __aenter__(self) -> "AsyncServeFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    async def submit(
        self,
        payload: Any,
        client_id: str = "default",
        tenant: str = DEFAULT_TENANT,
    ) -> Any:
        """Submit one request; returns the result or raises on shed.

        The caller's time here is the ``serve.frontend.submit`` wait
        span, tagged with the admission ``outcome`` and, for a shed
        request, its ``reason``.
        """
        if not self._running:
            raise ConfigurationError("frontend is not running (call start())")
        with telemetry.get_tracer().span("serve.frontend.submit", wait=True) as span:
            try:
                request = self.core.offer(client_id, payload, self._now(), tenant=tenant)
                span.tag(outcome="admitted")
                future = self._loop.create_future()
                request.future = future
                request.on_shed = _fail_future
                self._wake.set()
                return await future
            except RequestShedError as exc:
                span.tag(outcome="shed", reason=exc.reason)
                raise

    async def _dispatch_loop(self) -> None:
        while self._running:
            # Cleared before polling: a submit that lands while a batch
            # executes leaves the event set, so the loop polls again
            # instead of sleeping on a wake-up computed before it.
            self._wake.clear()
            for plan in self.core.poll(self._now()):
                await self._execute(plan)
            wake_at = self.core.next_wake(self._now())
            timeout = None if wake_at is None else max(wake_at - self._now(), 0.0)
            try:
                await asyncio.wait_for(self._wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass

    async def _execute(self, plan: DispatchPlan) -> None:
        if plan.extra_latency > 0.0:
            await asyncio.sleep(plan.extra_latency)
        with telemetry.get_tracer().span("serve.frontend.batch", size=len(plan.requests)):
            payloads = [request.payload for request in plan.requests]
            try:
                # The subset rides along only when the policy chose one, so
                # plain (payloads, batch_size) executors keep working.
                chosen = (plan.models,) if plan.models else ()
                results = self.executor(payloads, plan.batch_size, *chosen)
                if inspect.isawaitable(results):
                    results = await results
            except Exception as exc:  # executor bug or backend outage
                self._executor_errors.inc()
                # Callers get the executor's own exception (it is not a
                # backpressure signal); the ledger still closes.
                for request in plan.requests:
                    if request.future is not None and not request.future.done():
                        request.future.set_exception(exc)
                self.core.fail(plan, self._now(), "executor_error")
                return
            self.core.complete(plan, self._now())
            for request, result in zip(plan.requests, results):
                if request.future is not None and not request.future.done():
                    # An Exception *instance* in the results list is a
                    # per-request failure (e.g. one client's malformed
                    # image): only that caller errors, its batch-mates'
                    # results are untouched.
                    if isinstance(result, Exception):
                        request.future.set_exception(result)
                    else:
                        request.future.set_result(result)


def _fail_future(request: FrontendRequest, error: RequestShedError) -> None:
    """The async shell's ``on_shed`` hook: fail the awaiting client."""
    if request.future is not None and not request.future.done():
        request.future.set_exception(error)
