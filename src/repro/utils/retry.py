"""Retry/backoff and circuit-breaker policies for flaky operations.

Every long-running Rafiki job talks to components that can fail
underneath it — parameter-server shards, model replicas, cluster nodes.
This module centralises the two resilience primitives the rest of the
library composes:

* :class:`RetryPolicy` — bounded attempts with a doubling backoff
  schedule and *deterministic* jitter (seeded, so a retried run replays
  the exact same delay schedule);
* :class:`CircuitBreaker` — the classic closed / open / half-open state
  machine that stops hammering a failing dependency and, after a
  recovery window on the injectable telemetry clock, lets one probe
  call through.

Neither primitive ever sleeps: :meth:`RetryPolicy.call` retries at once,
and a caller that paces its retries (the serving front end's dispatch
retry) reads the schedule off :meth:`RetryPolicy.delay` on its own
clock. Every attempt, exhaustion and circuit transition is recorded in
families each policy and breaker builds where it is built
(``repro_retry_attempts_total``, ``repro_retry_exhausted_total``,
``repro_circuit_transitions_total``, ``repro_circuit_open``). Every range
check is written ``not x >= bound``, so NaN fails it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import telemetry
from repro.exceptions import ConfigurationError, RetryExhaustedError

__all__ = ["RetryPolicy", "CircuitBreaker"]


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter and attempt caps.

    ``delay(attempt)`` for attempt ``k`` (0-based) is
    ``min(base_delay * 2**k, max_delay)``, scaled by a jitter
    factor drawn from a generator seeded with ``(seed, attempt)`` — the
    schedule is therefore a pure function of the policy, never of
    global RNG state, which keeps chaos traces bit-reproducible.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 5.0
    #: jitter fraction in [0, 1): the delay is scaled by a factor drawn
    #: uniformly from [1 - jitter, 1 + jitter).
    jitter: float = 0.1
    #: exception types that trigger a retry; anything else propagates.
    retry_on: tuple = (Exception,)
    seed: int = 0

    def __post_init__(self):
        if not self.max_attempts >= 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not (self.base_delay >= 0 and self.max_delay >= 0):
            raise ConfigurationError("delays must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError(f"jitter must be in [0, 1), got {self.jitter}")
        registry = telemetry.get_registry()
        for attr, name, help in (  # frozen: the families are set, not fields
            ("_attempts", "repro_retry_attempts_total",
             "Attempts made under a RetryPolicy, by call name."),
            ("_exhausted", "repro_retry_exhausted_total",
             "Calls that failed on every allowed attempt, by call name."),
        ):
            object.__setattr__(self, attr, telemetry.Counter(name, help, registry))

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based), jittered."""
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        raw = min(self.base_delay * 2.0**attempt, self.max_delay)
        if not self.jitter:
            return raw
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, attempt)))
        return raw * (1.0 - self.jitter + 2.0 * self.jitter * rng.random())

    def call(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: str = "",
        on_retry: Callable[[int, BaseException], None] | None = None,
        **kwargs: Any,
    ) -> Any:
        """Run ``fn`` under this policy; return its result.

        ``name`` labels the telemetry counters; ``on_retry(attempt,
        error)`` is notified before every retry. Raises
        :class:`RetryExhaustedError` once every attempt failed, and
        re-raises immediately on exceptions outside ``retry_on``.
        """
        last_error: BaseException | None = None
        try:
            for attempt in range(self.max_attempts):
                self._attempts.inc(name=name or "(anonymous)")
                try:
                    return fn(*args, **kwargs)
                except self.retry_on as exc:
                    last_error = exc
                if attempt + 1 < self.max_attempts and on_retry is not None:
                    on_retry(attempt, last_error)
            self._exhausted.inc(name=name or "(anonymous)")
            raise RetryExhaustedError(name, self.max_attempts, last_error)
        finally:
            last_error = None  # its traceback holds this frame: no cycle


@dataclass
class CircuitBreaker:
    """Closed / open / half-open breaker over the telemetry clock.

    ``failure_threshold`` consecutive failures open the circuit. While
    open, :meth:`allow` returns ``False``, so callers can shed load
    instead of hammering a failing dependency. After ``recovery_time``
    seconds (on the injectable telemetry clock) the breaker is half-open
    and admits one probe call: its success closes the circuit, its
    failure opens it again.
    """

    name: str = ""
    failure_threshold: int = 3
    recovery_time: float = 30.0

    state: str = field(default="closed", init=False)
    _failures: int = field(default=0, init=False)
    _opened_at: float = field(default=0.0, init=False)
    _probing: bool = field(default=False, init=False)

    def __post_init__(self):
        if not self.failure_threshold >= 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if not self.recovery_time >= 0:
            raise ConfigurationError(
                f"recovery_time must be >= 0, got {self.recovery_time}"
            )
        registry = telemetry.get_registry()
        transitions = telemetry.Counter(
            "repro_circuit_transitions_total",
            "Circuit-breaker state transitions, by breaker and edge.", registry,
        )
        self._edges = {
            (frm, to): transitions.labels(name=self.name or "(anonymous)", frm=frm, to=to)
            for frm, to in (("closed", "open"), ("open", "half_open"),
                            ("half_open", "closed"), ("half_open", "open"))
        }
        self._open_gauge = telemetry.Gauge(
            "repro_circuit_open", "1 while the named circuit breaker is open.", registry
        )

    # ------------------------------------------------------------------
    # state machine
    # ------------------------------------------------------------------

    def allow(self) -> bool:
        """Whether a call may proceed right now (may move open -> half-open)."""
        if self.state == "closed":
            return True
        if self.state == "open":
            if telemetry.get_clock().now() - self._opened_at < self.recovery_time:
                return False
            self._transition("half_open")
        elif self._probing:  # half-open admits one probe call at a time
            return False
        self._probing = True
        return True

    def record_success(self) -> None:
        """Feed back a successful call (closes a half-open circuit)."""
        if self.state == "half_open":
            self._probing = False
            self._transition("closed")
        self._failures = 0

    def record_failure(self) -> None:
        """Feed back a failed call (may open the circuit)."""
        if self.state == "half_open":
            self._probing = False
            self._open()
            return
        self._failures += 1
        if self.state == "closed" and self._failures >= self.failure_threshold:
            self._open()

    def _open(self) -> None:
        self._opened_at = telemetry.get_clock().now()
        self._transition("open")

    def _transition(self, state: str) -> None:
        previous, self.state = self.state, state
        self._edges[previous, state].inc()
        self._open_gauge.set(1.0 if state == "open" else 0.0, name=self.name or "(anonymous)")

    @property
    def opened_count(self) -> int:
        """How often the circuit has opened, from closed or half-open."""
        return self._edges["closed", "open"].count + self._edges["half_open", "open"].count
