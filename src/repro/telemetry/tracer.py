"""Span-based tracing: the one way the product times a duration.

A span covers one timed operation (a gateway request, a parameter-server
get, a blob write, a study run); spans nest, and the tracer records the
parent relationship so an exported trace reconstructs the call tree.
Time comes from the injectable telemetry clock, so traces taken under a
:class:`~repro.telemetry.clock.ManualClock` have exact durations.

    tracer = Tracer(clock=ManualClock())
    with tracer.span("study", study="cli") as span:
        with tracer.span("trial", trial_id=1):
            ...
        span.tag(trials=1)
    span.duration  # seconds, also when the tracer is disabled
    tracer.export()  # -> list of plain dicts, parents before children

Every span stamps ``start`` and ``end``, enabled or not, so code that
needs a duration (the gateway's latency histogram, a pool worker's
trial time) reads it off the span covering the work: there is no second
timer. ``enabled`` only decides whether a span is linked to its parent
and kept.

The open span rides on a context variable, so every asyncio task and
thread nests its spans under its own parents. A span opened with no
parent starts a request: it takes a fresh ``request`` id, and every span
under it carries the same id. A span's *self time* is its duration minus
the time its children cover. A ``wait`` span (a caller parked on a
future) has no self time of its own, since what runs while it waits is
other tasks' spans, but it still counts as a child of its parent.
"""

from __future__ import annotations

from collections import deque
from contextvars import ContextVar
from itertools import count

from repro.telemetry.clock import Clock, get_clock

__all__ = ["Span", "Tracer"]

_new = object.__new__


class Span:
    """One operation: a name, a time range, its parent and free-form tags.

    Made by :meth:`Tracer.span`; the ``with`` block is its scope.
    ``span_id``, ``parent`` and ``request`` are set only when the tracer
    is enabled (0, ``None`` and 0 otherwise).
    """

    __slots__ = ("name", "tags", "wait", "start", "end", "span_id", "parent",
                 "request", "child_s", "_tracer", "_token")

    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer.enabled:
            parent = tracer._current.get()
            self.span_id = next(tracer._ids)
            if parent is None:
                self.request = next(tracer._requests)
            else:
                self.parent, self.request = parent, parent.request
            self._token = tracer._current.set(self)
        self.start = (tracer._clock or get_clock()).now()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        tracer = self._tracer
        self.end = (tracer._clock or get_clock()).now()
        if self._token is not None:
            tracer._current.reset(self._token)
            if self.parent is not None:
                self.parent.child_s += self.end - self.start
            spans = tracer._spans
            if len(spans) == spans.maxlen:
                tracer.dropped += 1
            spans.append(self)

    @property
    def parent_id(self) -> int | None:
        """The enclosing span's id (``None`` for a root or untraced span)."""
        return None if self.parent is None else self.parent.span_id

    @property
    def duration(self) -> float:
        """Seconds between start and end."""
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Seconds not covered by a child span (0 for a ``wait`` span)."""
        return 0.0 if self.wait else max(0.0, self.duration - self.child_s)

    def tag(self, **tags) -> None:
        """Attach extra tags to the span (inside or after its scope); a
        span the tracer does not keep drops them."""
        if self._token is not None:
            self.tags.update(tags)

    def to_dict(self) -> dict:
        """The span as a JSON-serialisable dict."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "request": self.request,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "self": self.self_s,
            "wait": self.wait,
            "tags": dict(self.tags),
        }


class Tracer:
    """Records nested spans against an injectable clock.

    The last ``max_spans`` finished spans are kept in a ring (older ones
    drop out and count in ``dropped``, so a long-running process cannot
    leak memory). A disabled tracer still times every span but links
    and keeps none.
    """

    def __init__(self, clock: Clock | None = None, max_spans: int = 10_000,
                 enabled: bool = True):
        self._clock = clock
        self.enabled = bool(enabled)
        self._spans: deque[Span] = deque(maxlen=int(max_spans))
        self._current: ContextVar[Span | None] = ContextVar("span", default=None)
        self._ids = count(1)
        self._requests = count(1)
        self.dropped = 0

    def span(self, name: str, wait: bool = False, **tags) -> Span:
        """A span for a ``with`` block; entering it yields the :class:`Span`.

        The span closes (its ``end`` stamped) when the block exits, even
        on exception. Nested spans record the enclosing one as their
        parent. ``wait`` marks a span whose time is spent parked, not
        working: it has no self time.
        """
        # Filled in here, not by an ``__init__``: the request path opens a
        # span per layer, and a type call into ``__init__`` is one more
        # call from C into Python on each.
        span = _new(Span)
        span._tracer, span.name, span.wait, span.tags = self, name, wait, tags
        span.start = span.end = span.child_s = 0.0
        span.span_id = span.request = 0
        span.parent = span._token = None
        return span

    def record(self, name: str, start: float, end: float, **tags) -> None:
        """Keep a span timed elsewhere (a pool child's epoch, sent home)
        as a child of the open span; a disabled tracer keeps nothing.

        ``start`` and ``end`` must come off this tracer's clock; a forked
        child's ``perf_counter`` is the parent's ``CLOCK_MONOTONIC`` on
        Linux. The span may start before its parent did (the child runs
        ahead): the parent's self time then clamps at 0.
        """
        if self.enabled:
            span = self.span(name, **tags)
            span.parent, span.span_id = self._current.get(), next(self._ids)
            span.request = next(self._requests) if span.parent is None else span.parent.request
            span.start, span.end = start, end
            if span.parent is not None:
                span.parent.child_s += end - start
            if len(self._spans) == self._spans.maxlen:
                self.dropped += 1
            self._spans.append(span)

    @property
    def spans(self) -> list[Span]:
        """Finished spans in completion order."""
        return list(self._spans)

    def export(self) -> list[dict]:
        """Finished spans as JSON-serialisable dicts, start-ordered.

        Start order puts every parent before its children, which is the
        natural order for rendering a trace tree.
        """
        return [s.to_dict() for s in sorted(self._spans, key=lambda s: (s.start, s.span_id))]

    def reset(self) -> None:
        """Drop all finished spans (open spans are unaffected)."""
        self._spans.clear()
        self.dropped = 0
