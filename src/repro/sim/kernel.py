"""A small deterministic discrete-event simulator.

The kernel supports two programming styles:

* **Callbacks** — ``sim.schedule(delay, fn, *args)`` runs ``fn`` at
  ``now + delay``.
* **Processes** — ``sim.spawn(gen)`` drives a generator; the generator
  ``yield``\\ s either a non-negative float (sleep for that many simulated
  seconds) or a :class:`Signal` (block until the signal fires; the value
  passed to :meth:`Signal.fire` becomes the result of the ``yield``).

Events scheduled for the same instant run in scheduling order, which
keeps runs bit-for-bit reproducible.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable

from repro.exceptions import ConfigurationError

__all__ = ["Simulator", "Signal", "EventHandle"]

Process = Generator[Any, Any, None]


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("time", "_cancelled")

    def __init__(self, time: float):
        self.time = time
        self._cancelled = False

    def cancel(self) -> None:
        """Prevent the event from running (no-op if it already ran)."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Signal:
    """A broadcast condition that simulated processes can wait on.

    ``fire(value)`` wakes every process currently waiting; each resumed
    process receives ``value`` as the result of its ``yield``.
    """

    __slots__ = ("name", "_waiters")

    def __init__(self, name: str = "signal"):
        self.name = name
        self._waiters: list[Callable[[Any], None]] = []

    def _add_waiter(self, resume: Callable[[Any], None]) -> None:
        self._waiters.append(resume)

    def fire(self, value: Any = None) -> int:
        """Wake all waiters, returning how many were woken."""
        waiters, self._waiters = self._waiters, []
        for resume in waiters:
            resume(value)
        return len(waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"


class Simulator:
    """Deterministic event loop over a virtual clock."""

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, EventHandle, Callable[[], None]]] = []
        self._counter = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay!r}")
        handle = EventHandle(self._now + delay)
        heapq.heappush(self._heap, (handle.time, next(self._counter), handle, lambda: fn(*args)))
        return handle

    def spawn(self, process: Process, delay: float = 0.0) -> EventHandle:
        """Start driving a generator process after ``delay`` seconds."""
        return self.schedule(delay, self._step_process, process, None)

    def _step_process(self, process: Process, send_value: Any) -> None:
        try:
            yielded = process.send(send_value)
        except StopIteration:
            return
        if isinstance(yielded, Signal):
            yielded._add_waiter(
                lambda value, p=process: self.schedule(0.0, self._step_process, p, value)
            )
        elif isinstance(yielded, (int, float)):
            self.schedule(float(yielded), self._step_process, process, None)
        else:
            raise ConfigurationError(
                "a simulated process must yield a delay (float) or a Signal, "
                f"got {type(yielded).__name__}"
            )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Run the next event; return ``False`` when the queue is empty."""
        while self._heap:
            time, _seq, handle, thunk = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = time
            thunk()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run events until the horizon, the event budget, or exhaustion.

        Returns the simulated time at which execution stopped. When
        ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier.
        """
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                break
            next_time = self._heap[0][0]
            if until is not None and next_time > until:
                break
            if self.step():
                executed += 1
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_all(self) -> float:
        """Drain the event queue completely (bounded at ten million events)."""
        return self.run(max_events=10_000_000)

    def drain(self, signals: Iterable[Signal]) -> None:
        """Fire ``signals`` so that no process is left blocked forever."""
        for signal in signals:
            signal.fire(None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.6f}, pending={len(self._heap)})"
