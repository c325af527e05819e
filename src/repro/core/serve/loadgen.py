"""Open/closed-loop load generation for the serving front end.

Drives a :class:`~repro.core.serve.frontend.ServeFrontend` core on the
discrete-event :class:`~repro.sim.Simulator` — the only driver of the
serving loop outside the asyncio shell, and the environment the
Figure 10/13-16 experiments run in — so an hour of heavy load
runs in milliseconds and — because the core, the arrival process, and
the replica pool are all seeded and clock-driven — two runs with the
same seed produce **bit-identical traces**. That determinism is the
load harness's acceptance bar (the same-seed gate over
``BENCH_serve.json``'s fingerprints) and what makes chaos runs (replica
death mid-load) assertable.

Two load shapes, per the serving literature:

* **open loop** — arrivals follow the paper's
  :class:`~repro.core.serve.arrival.SineArrival` process regardless of
  completions; this is the "millions of independent users" model and
  the one that exposes overload (the generator does not slow down when
  the system does, so admission control must shed). The requests of
  one arrival step are offered together, then the front end is polled
  once.
* **closed loop** — ``clients`` simulated users each wait for their
  response, think, then submit again; throughput self-limits at
  ``clients / (latency + think_time)``, which probes capacity without
  overload.

Models are simulated by :class:`ReplicaPool`: a batch occupies the
least-loaded live replica — or, when the dispatch policy named a model
subset, each named model — for ``c(b)`` seconds (the same affine
latency model the batcher plans with). A :class:`~repro.core.serve.frontend.
ScalingAdvisor` can be wired in to grow/shrink the pool from the front
end's queue depth and p95 latency mid-run: it is consulted every
``_AUTOSCALE_INTERVAL`` simulated seconds and keeps the pool within
``_SCALE_BOUNDS`` replicas.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.serve.arrival import SineArrival
from repro.core.serve.frontend import (
    DispatchPlan,
    FrontendRequest,
    ScalingAdvisor,
    ServeFrontend,
)
from repro.core.serve.policy import BatchOutcome
from repro.exceptions import ConfigurationError, RequestShedError
from repro.sim import Signal, Simulator
from repro.tenancy import DEFAULT_TENANT

__all__ = [
    "LoadGenConfig",
    "TraceRecord",
    "LoadTrace",
    "ReplicaPool",
    "run_load",
    "run_multi_load",
]

#: the autoscaled pool stays within these replica counts ...
_SCALE_BOUNDS = (1, 8)
#: ... and its advisor is consulted every this many simulated seconds.
_AUTOSCALE_INTERVAL = 1.0


@dataclass(frozen=True)
class LoadGenConfig:
    """Shape of one load run (see EXPERIMENTS.md for recipes)."""

    #: "open" (sine arrivals, overload-capable) or "closed" (think-time).
    mode: str = "open"
    #: open loop: the sine target rate r_target (requests/second).
    target_rate: float = 200.0
    #: open loop: sine period T in seconds.
    period: float = 60.0
    #: distinct client identities (round-robin in open loop; one
    #: simulated user each in closed loop).
    clients: int = 8
    #: closed loop: seconds a client waits between response and next
    #: request.
    think_time: float = 0.05
    #: seconds of load generation (completions drain afterwards).
    duration: float = 60.0
    #: open loop: arrival-process step in seconds.
    span: float = 0.05
    #: seeds the arrival noise; same seed => bit-identical trace.
    seed: int = 0
    #: tenant identity stamped on every offer and trace record; lets
    #: :func:`run_multi_load` drive several tenants' loads against one
    #: front end and pull per-tenant tails out of the shared trace.
    tenant: str = DEFAULT_TENANT

    def __post_init__(self):
        if self.mode not in ("open", "closed"):
            raise ConfigurationError(
                f"mode must be 'open' or 'closed', got {self.mode!r}"
            )
        if self.clients < 1:
            raise ConfigurationError(f"clients must be >= 1, got {self.clients}")
        # Each mode's own numbers: NaN or inf would never end the run.
        used = ("period", "span", "target_rate") if self.mode == "open" else ()
        for name in ("duration", *used):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(f"{name} must be finite and > 0, got {value}")
        if self.mode == "closed" and not 0.0 <= self.think_time < math.inf:
            raise ConfigurationError(
                f"think_time must be finite and >= 0, got {self.think_time}"
            )


@dataclass(frozen=True)
class TraceRecord:
    """One request's terminal event in the load trace."""

    #: front-end sequence number (0 for requests shed at admission,
    #: which never received one).
    seq: int
    client: str
    #: simulated time of the terminal event.
    time: float
    #: "served" or the shed reason.
    outcome: str
    #: arrival-to-completion seconds (NaN unless served).
    latency: float
    #: tenant the request was offered under.
    tenant: str = DEFAULT_TENANT


@dataclass
class LoadTrace:
    """Every request's fate, in deterministic simulated-event order."""

    tau: float
    duration: float
    mode: str
    records: list[TraceRecord] = field(default_factory=list)

    def record_arrivals(self, time: float, count: int) -> None:
        """Nothing to do: every admitted request gets its own record."""

    def record_shed(self, time, client, tenant, reason, seq=0) -> None:
        """One request refused (``seq`` 0) or abandoned after admission."""
        self.records.append(TraceRecord(seq, client, time, reason, float("nan"), tenant))

    def record_batch(self, time: float, plan: DispatchPlan, outcome: BatchOutcome) -> None:
        """One served record per request of a completed batch."""
        self.records.extend(
            TraceRecord(r.seq, r.client_id, time, "served", latency, r.tenant)
            for r, latency in zip(plan.requests, outcome.latencies)
        )

    def fingerprint(self) -> str:
        """SHA-256 over the full trace — the bit-identity check."""
        digest = hashlib.sha256()
        for r in self.records:
            digest.update(
                f"{r.seq}|{r.client}|{r.time!r}|{r.outcome}|{r.latency!r}"
                f"|{r.tenant}\n".encode()
            )
        return digest.hexdigest()

    def summary(self, tenant: str | None = None) -> dict:
        """Aggregates for benches and the CLI: QPS, tails, shed rate.

        Pass ``tenant=`` to restrict the aggregates to one tenant's
        records — the isolation scenario's per-tenant tail check.
        """
        records = (
            self.records
            if tenant is None
            else [r for r in self.records if r.tenant == tenant]
        )
        served = [r for r in records if r.outcome == "served"]
        shed_by_reason: dict[str, int] = {}
        for r in records:
            if r.outcome != "served":
                shed_by_reason[r.outcome] = shed_by_reason.get(r.outcome, 0) + 1
        latencies = np.array([r.latency for r in served], dtype=np.float64)
        offered = len(records)
        quantile = (
            (lambda q: float(np.percentile(latencies, q)))
            if latencies.size
            else (lambda q: 0.0)
        )
        return {
            "mode": self.mode,
            "tau": self.tau,
            "duration": self.duration,
            "offered": offered,
            "served": len(served),
            "shed": offered - len(served),
            "shed_by_reason": shed_by_reason,
            "offered_qps": offered / self.duration,
            "sustained_qps": len(served) / self.duration,
            "p50_s": quantile(50),
            "p95_s": quantile(95),
            "p99_s": quantile(99),
            "slo_miss_rate": (
                float(np.mean(latencies > self.tau)) if latencies.size else 0.0
            ),
            "shed_rate": (offered - len(served)) / offered if offered else 0.0,
        }


class ReplicaPool:
    """The simulated models: one ``busy_until`` and one ``c(b)`` each.

    ``latency`` is either one latency model shared by ``replicas``
    identical replicas of the deployed ensemble, or a sequence of them,
    one per deployed model. A batch with no models named occupies the
    least-loaded *live* replica; a batch on a named subset queues on
    each named model behind its in-flight work and completes with the
    slowest. Killed replicas stop taking unnamed work (their in-flight
    batch still completes — the failure mode where the process dies
    mid-batch is modelled by a ``frontend.dispatch`` chaos rule
    instead). Doubles as the front end's capacity hook:
    ``capacity(now)`` reports live replicas and the head-of-line delay
    admission control divides work across.
    """

    def __init__(
        self,
        latency: Callable[[int], float] | Sequence[Callable[[int], float]],
        replicas: int = 1,
    ):
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        self.latencies = [latency] * replicas if callable(latency) else list(latency)
        self.busy_until = [0.0] * len(self.latencies)
        self.alive = [True] * len(self.latencies)

    @property
    def size(self) -> int:
        """Total replicas, live or not."""
        return len(self.busy_until)

    def live(self) -> int:
        """Replicas currently accepting work."""
        return sum(self.alive)

    def capacity(self, now: float) -> tuple[int, float]:
        """The front-end capacity hook: ``(live, head_delay_seconds)``."""
        delays = [
            max(b - now, 0.0) for b, a in zip(self.busy_until, self.alive) if a
        ]
        if not delays:
            return 0, 0.0
        return len(delays), min(delays)

    def assign(
        self,
        now: float,
        batch_size: int,
        extra_latency: float = 0.0,
        models: Sequence[int] = (),
    ) -> float:
        """Queue a batch on ``models`` (default: the least-loaded live replica).

        Returns the completion time; raises if no model is named and no
        replica is live (callers check :meth:`live` and shed instead).
        """
        if not models:
            candidates = [i for i, a in enumerate(self.alive) if a]
            if not candidates:
                raise ConfigurationError("no live replica to assign the batch to")
            models = (min(candidates, key=lambda i: (max(self.busy_until[i], now), i)),)
        completion = now
        for index in models:
            start = max(self.busy_until[index], now)
            self.busy_until[index] = start + self.latencies[index](batch_size) + extra_latency
            completion = max(completion, self.busy_until[index])
        return completion

    def kill(self, index: int) -> None:
        """Take a replica out of rotation (chaos: replica death)."""
        self.alive[index] = False

    def scale_to(self, n: int, now: float) -> None:
        """Grow (fresh live replicas) or shrink (drop from the tail)."""
        if n < 1:
            raise ConfigurationError(f"cannot scale below 1 replica, got {n}")
        while len(self.busy_until) < n:
            self.latencies.append(self.latencies[0])
            self.busy_until.append(now)
            self.alive.append(True)
        while len(self.busy_until) > n:
            self.latencies.pop()
            self.busy_until.pop()
            self.alive.pop()


def _spawn_load(
    driver: "_Driver", sim: Simulator, load: LoadGenConfig, stagger: float = 0.0
) -> None:
    """Spawn one load shape's arrival coroutine(s) into the simulator.

    ``stagger`` offsets every coroutine of this load by a sub-span
    epsilon so that concurrent loads (``run_multi_load``) keep a stable
    deterministic order for same-instant submissions.
    """
    if load.mode == "open":
        arrival = SineArrival(
            load.target_rate, load.period, rng=np.random.default_rng(load.seed)
        )
        sim.spawn(driver.open_loop(arrival, load), delay=stagger)
    else:
        # Stagger client starts so same-instant submissions keep a
        # stable deterministic order.
        for index in range(load.clients):
            prefix = _Driver._client_prefix(load)
            sim.spawn(
                driver.closed_client(f"{prefix}-{index}", load),
                delay=stagger + index * 1e-6,
            )


class _Driver:
    """Glues frontend core, replica pool and simulator together."""

    def __init__(self, frontend: ServeFrontend, pool: ReplicaPool, sim: Simulator, trace):
        self.frontend = frontend
        self.pool = pool
        self.sim = sim
        self.trace = trace
        self._wake_at: float | None = None
        frontend.capacity = pool.capacity

    # -- admission ------------------------------------------------------

    def offer(
        self, clients: Sequence[str], tenant: str = DEFAULT_TENANT
    ) -> tuple[list[FrontendRequest], float | None]:
        """Offer one same-instant burst, then poll the front end once; returns
        the admitted requests and the last shed's ``retry_after`` hint."""
        now = self.sim.now
        offer, on_shed = self.frontend.offer, self._on_shed
        # the hint, not the error: the error's traceback would hold this frame
        admitted, retry_after = [], None
        for client in clients:
            try:
                request = offer(client, None, now, tenant)
            except RequestShedError as exc:
                retry_after = exc.retry_after
                self.trace.record_shed(now, client, tenant, exc.reason)
                continue
            request.on_shed = on_shed
            admitted.append(request)
        if admitted:
            self.trace.record_arrivals(now, len(admitted))
            self.pump()
        return admitted, retry_after

    def _on_shed(self, request: FrontendRequest, error: RequestShedError) -> None:
        self.trace.record_shed(
            self.sim.now, request.client_id, request.tenant,
            request.shed_reason or "shed", request.seq,
        )
        if isinstance(request.future, Signal):
            request.future.fire(error)

    # -- dispatch / completion -----------------------------------------

    def pump(self) -> None:
        now = self.sim.now
        for plan in self.frontend.poll(now, self.pool):
            self.sim.schedule(plan.completion - now, self._complete, plan)
        self._arm_wake()

    def _arm_wake(self) -> None:
        wake = self.frontend.next_wake(self.sim.now)
        if wake is None:
            return
        if self._wake_at is not None and self._wake_at <= wake + 1e-9:
            return
        self._wake_at = wake
        self.sim.schedule(max(wake - self.sim.now, 0.0), self._on_wake, wake)

    def _on_wake(self, token: float) -> None:
        if self._wake_at == token:
            self._wake_at = None
        self.pump()

    def _complete(self, plan: DispatchPlan) -> None:
        now = self.sim.now
        self.trace.record_batch(now, plan, self.frontend.complete(plan, now))
        for request in plan.requests:
            if isinstance(request.future, Signal):
                request.future.fire(None)
        self.pump()

    # -- load shapes ----------------------------------------------------

    @staticmethod
    def _client_prefix(load: LoadGenConfig) -> str:
        # Default-tenant loads keep the historical "client-N" names so
        # single-tenant traces (and their fingerprints) are unchanged;
        # multi-tenant loads get distinct per-tenant client identities.
        if load.tenant == DEFAULT_TENANT:
            return "client"
        return f"{load.tenant}-client"

    def open_loop(self, arrival: SineArrival, load: LoadGenConfig):
        prefix = self._client_prefix(load)
        names = [f"{prefix}-{index}" for index in range(load.clients)]
        sent = 0
        while self.sim.now < load.duration:
            count = arrival.count(self.sim.now, load.span)
            if count:
                self.offer(
                    [names[i % load.clients] for i in range(sent, sent + count)],
                    load.tenant,
                )
                sent += count
            yield load.span

    def closed_client(self, name: str, load: LoadGenConfig):
        while self.sim.now < load.duration:
            admitted, retry_after = self.offer([name], load.tenant)
            if not admitted:
                yield max(retry_after, load.think_time)
                continue
            signal = Signal(name)
            admitted[0].future = signal
            yield signal
            yield load.think_time

    def autoscale(self, advisor: ScalingAdvisor, duration: float):
        low, high = _SCALE_BOUNDS
        while self.sim.now < duration:
            hint = advisor.evaluate(self.frontend, self.sim.now)
            if hint > 0 and self.pool.size < high:
                self.pool.scale_to(self.pool.size + 1, self.sim.now)
            elif hint < 0 and self.pool.size > low:
                self.pool.scale_to(self.pool.size - 1, self.sim.now)
            yield _AUTOSCALE_INTERVAL


def run_load(
    frontend: ServeFrontend,
    pool: ReplicaPool,
    load: LoadGenConfig,
    autoscaler: ScalingAdvisor | None = None,
    events: Sequence[tuple[float, Callable[[], None]]] = (),
    trace=None,
):
    """Run one load shape against a front end; returns the full trace.

    :func:`run_multi_load` of a single load, plus an optional
    ``autoscaler`` consulted every ``_AUTOSCALE_INTERVAL`` simulated
    seconds to grow or shrink ``pool`` within ``_SCALE_BOUNDS``.

    ``events`` is a deterministic chaos schedule: ``(time, thunk)``
    pairs executed at exact simulated instants (e.g.
    ``(30.0, lambda: pool.kill(1))`` for replica death mid-load).

    ``trace`` (here and in :func:`run_multi_load`) is what records the
    run and is returned: by default a per-request :class:`LoadTrace`;
    pass a :class:`~repro.core.serve.metrics.ServingMetrics` for
    per-batch records only (anything with their three ``record_*``
    methods).
    """
    return _run_loads(frontend, pool, [load], events, autoscaler, trace)


def run_multi_load(
    frontend: ServeFrontend,
    pool: ReplicaPool,
    loads: Sequence[LoadGenConfig],
    trace=None,
):
    """Run several loads (typically one per tenant) against one front end.

    All loads share the simulator, the front end and the replica pool,
    so they contend for the same queue and capacity — the setting the
    tenant-isolation scenario measures. Returns one combined trace;
    use ``trace.summary(tenant=...)`` for per-tenant aggregates. Load
    coroutines are staggered by a sub-span epsilon in list order so
    same-instant submissions stay deterministically ordered.

    After the longest ``load.duration`` the arrival side stops and
    the queue drains for ``10 * tau``; anything still queued then is
    shed as ``shutdown`` and the batches already on the models run to
    completion, so every offered request has exactly one terminal
    trace record (in :func:`run_load` too).
    """
    return _run_loads(frontend, pool, loads, (), trace=trace)


def _run_loads(frontend, pool, loads, events, autoscaler=None, trace=None):
    """The one run → pump → drain → shed-leftovers sequence of both entries."""
    if not loads:
        raise ConfigurationError("run_multi_load needs at least one load")
    sim = Simulator()
    duration = max(load.duration for load in loads)
    if trace is None:
        mode = loads[0].mode if len(loads) == 1 else "multi"
        trace = LoadTrace(tau=frontend.config.tau, duration=duration, mode=mode)
    driver = _Driver(frontend, pool, sim, trace)
    for index, load in enumerate(loads):
        _spawn_load(driver, sim, load, stagger=index * 1e-7)
    if autoscaler is not None:
        sim.spawn(driver.autoscale(autoscaler, duration))
    for when, thunk in events:
        sim.schedule(when, thunk)
    sim.run(until=duration + 10.0 * frontend.config.tau)
    # Deterministic number of drain pumps: serve the stragglers the
    # leftover rule has already released, then shed whatever remains.
    driver.pump()
    sim.run(until=sim.now + 10.0 * frontend.config.tau)
    leftovers = frontend.pending.pop(len(frontend.pending))
    if leftovers:
        frontend.shed_requests(leftovers, sim.now, "shutdown")
    # Whatever a policy queued on busy models further ahead than the
    # drain window still completes: no batch is left without an outcome.
    sim.run()
    return trace


def capacity_qps(latency: Callable[[int], float], batch_size: int, replicas: int = 1) -> float:
    """Peak sustainable requests/second: ``replicas * b / c(b)``.

    The open-loop benches express their concurrency levels as multiples
    of this number, so "1.5x capacity" means the same thing on any
    latency model.
    """
    if math.isclose(latency(batch_size), 0.0):
        raise ConfigurationError("latency model returned 0 — cannot derive capacity")
    return replicas * batch_size / latency(batch_size)


__all__.append("capacity_qps")
