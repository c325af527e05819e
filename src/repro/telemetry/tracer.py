"""Span-based tracing with a context-manager API.

A span covers one timed operation (a profiled forward pass, a study
run, a gateway request); spans nest, and the tracer records the parent
relationship so an exported trace reconstructs the call tree. Time
comes from the injectable telemetry clock, so traces taken under a
:class:`~repro.telemetry.clock.ManualClock` have exact durations.

    tracer = Tracer(clock=ManualClock())
    with tracer.span("study", study="cli") as span:
        with tracer.span("trial", trial_id=1):
            ...
        span.tag(trials=1)
    tracer.export()  # -> list of plain dicts, parents before children
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field

from repro.telemetry.clock import Clock, get_clock

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One recorded operation: a name, a time range and free-form tags."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float = 0.0
    tags: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Seconds between start and end."""
        return self.end - self.start

    def tag(self, **tags) -> None:
        """Attach extra tags to the span (inside or after its scope)."""
        self.tags.update(tags)

    def to_dict(self) -> dict:
        """The span as a JSON-serialisable dict."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "tags": dict(self.tags),
        }


class Tracer:
    """Records nested spans against an injectable clock.

    Finished spans accumulate up to ``max_spans`` (oldest dropped
    first, so a long-running process cannot leak memory). Disable the
    tracer to make :meth:`span` a zero-recording no-op scope. The open
    span is kept on a context variable, so every asyncio task and thread
    nests its spans under its own parents.
    """

    def __init__(self, clock: Clock | None = None, max_spans: int = 10_000,
                 enabled: bool = True):
        self._clock = clock
        self.max_spans = int(max_spans)
        self.enabled = bool(enabled)
        self._spans: list[Span] = []
        self._current: ContextVar[Span | None] = ContextVar("span", default=None)
        self._next_id = 1
        self.dropped = 0

    @property
    def clock(self) -> Clock:
        """The bound clock, or the process default when unbound."""
        return self._clock if self._clock is not None else get_clock()

    @contextmanager
    def span(self, name: str, **tags):
        """Open a span; yields the :class:`Span` for tagging.

        The span closes (its ``end`` stamped) when the ``with`` block
        exits, even on exception. Nested calls record the enclosing
        span as ``parent_id``.
        """
        if not self.enabled:
            yield Span(name=name, span_id=0, parent_id=None, start=0.0, tags=tags)
            return
        clock = self.clock
        parent = self._current.get()
        span = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent.span_id if parent is not None else None,
            start=clock.now(),
            tags=dict(tags),
        )
        self._next_id += 1
        token = self._current.set(span)
        try:
            yield span
        finally:
            self._current.reset(token)
            span.end = clock.now()
            self._spans.append(span)
            if len(self._spans) > self.max_spans:
                overflow = len(self._spans) - self.max_spans
                del self._spans[:overflow]
                self.dropped += overflow

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
