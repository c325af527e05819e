"""Injectable time sources for all telemetry (and instrumented) timing.

Every timed code path in the library reads time through a
:class:`Clock` rather than calling ``time.*`` directly, so tests can
substitute a :class:`ManualClock` and make measured durations exact.
The process-wide default clock is a :class:`SystemClock`; swap it with
:func:`set_clock` (and restore the returned previous clock afterwards).
"""

from __future__ import annotations

import time

__all__ = ["Clock", "SystemClock", "ManualClock", "get_clock", "set_clock"]


class Clock:
    """Interface for a monotonic time source measured in seconds."""

    def now(self) -> float:
        """Current time in seconds (monotonic, arbitrary epoch)."""
        raise NotImplementedError


class SystemClock(Clock):
    """The real monotonic clock (``time.perf_counter``)."""

    def now(self) -> float:
        """Seconds from ``time.perf_counter``."""
        return time.perf_counter()


class ManualClock(Clock):
    """A clock that only moves when told to — for deterministic tests."""

    def __init__(self):
        self._now = 0.0

    def now(self) -> float:
        """The manually set current time."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move the clock forward by ``seconds``; returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance by negative seconds ({seconds})")
        self._now += float(seconds)
        return self._now

    def set(self, now: float) -> None:
        """Jump the clock to an absolute time."""
        self._now = float(now)


_default_clock: Clock = SystemClock()


def get_clock() -> Clock:
    """The process-wide default clock used by instrumented code."""
    return _default_clock


def set_clock(clock: Clock) -> Clock:
    """Install ``clock`` as the default; returns the previous clock."""
    global _default_clock
    previous = _default_clock
    _default_clock = clock
    return previous
