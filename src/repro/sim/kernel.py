"""A small deterministic discrete-event simulator.

The kernel supports two programming styles:

* **Callbacks** — ``sim.schedule(delay, fn, *args)`` runs ``fn`` at
  ``now + delay``.
* **Processes** — ``sim.spawn(gen)`` drives a generator; the generator
  ``yield``\\ s either a non-negative float (sleep for that many simulated
  seconds) or a :class:`Signal` (block until the signal fires; the value
  passed to :meth:`Signal.fire` becomes the result of the ``yield``).

Events scheduled for the same instant run in scheduling order (a
sequence number breaks time ties), which keeps runs bit-for-bit
reproducible. A scheduled event always runs: nothing cancels one.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator

from repro.exceptions import ConfigurationError

__all__ = ["Simulator", "Signal"]

Process = Generator[Any, Any, None]


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


class Simulator:
    """Deterministic event loop over a virtual clock."""

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._counter = itertools.count()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise ConfigurationError(f"delay must be >= 0, got {delay!r}")
        heapq.heappush(self._heap, (self._now + delay, next(self._counter), lambda: fn(*args)))

    def spawn(self, process: Process, delay: float = 0.0) -> None:
        """Start driving a generator process after ``delay`` seconds."""
        self.schedule(delay, self._step_process, process, None)

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

    def step(self) -> None:
        """Run the next event (the queue must not be empty)."""
        self._now, _seq, thunk = heapq.heappop(self._heap)
        thunk()

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
            self.step()
            executed += 1
        if until is not None and until > self._now:
            self._now = until
        return self._now
