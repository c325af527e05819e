"""In-memory spans recorded from outside the program.

The traced run wraps public methods on the *instances* a workload
builds (``tracer.wrap(system, "query", "system.query")``) and passes
wrapper objects through public injection points; nothing under ``src/``
is edited or patched at class level. A span carries name, start, end,
the span that caused it and a per-request id; spans stay in a list and
are written as JSON when the run ends.

Parentage rides on a context variable, so it is correct across
``await``: each asyncio task sees its own current span. A span's *self
time* is its duration minus the part its children cover. A ``wait``
span (a client parked on a future) has no self time of its own — what
happens while it waits is other tasks' spans — but still counts as a
child, so ``gateway.handle_async`` minus ``frontend.submit`` is exactly
the gateway's own CPU time.
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from collections import defaultdict
from typing import Any, Callable

__all__ = ["Tracer", "Span"]

_perf = time.perf_counter
_current: contextvars.ContextVar[int] = contextvars.ContextVar("e2e_span", default=-1)
_request: contextvars.ContextVar[Any] = contextvars.ContextVar("e2e_request", default=None)


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "phase", "wait",
                 "scale", "child_s", "tick_s")

    def __init__(self, name, start, parent, request, phase, wait):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.phase = phase
        self.wait = wait
        self.scale = 1.0
        self.child_s = 0.0
        self.tick_s = 0.0

    @property
    def raw_s(self) -> float:
        """Duration, less the calibration ticks that ran while it was open."""
        return self.end - self.start - self.tick_s

    @property
    def self_raw_s(self) -> float:
        return 0.0 if self.wait else max(0.0, self.raw_s - self.child_s)

    @property
    def cal_s(self) -> float:
        return self.raw_s * self.scale

    @property
    def self_cal_s(self) -> float:
        return self.self_raw_s * self.scale


class _SpanContext:
    __slots__ = ("tracer", "name", "wait", "index", "token")

    def __init__(self, tracer, name, wait):
        self.tracer = tracer
        self.name = name
        self.wait = wait

    def __enter__(self) -> Span:
        spans = self.tracer.spans
        self.index = len(spans)
        span = Span(self.name, 0.0, _current.get(), _request.get(),
                    self.tracer.phase, self.wait)
        spans.append(span)
        self.tracer._by_name[self.name].append(span)
        self.token = _current.set(self.index)
        span.start = _perf()
        return span

    def __exit__(self, exc_type, exc, tb) -> None:
        self.tracer.spans[self.index].end = _perf()
        _current.reset(self.token)


class Tracer:
    """Span recorder; ``phase`` labels spans with what the run was doing."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase = "setup"
        #: whether ``phase`` is one of the timed ones; ``add`` counts only then.
        self.timed = False
        #: counters kept beside the spans, so that ratios are measured
        #: where the work happens.
        self.counts: dict[str, float] = defaultdict(float)
        self._wrapped: set[tuple[int, str]] = set()
        self._by_name: dict[str, list[Span]] = defaultdict(list)

    def enter(self, phase: str, timed: bool) -> None:
        self.phase, self.timed = phase, timed

    def add(self, name: str, amount: float = 1.0) -> None:
        """Count ``amount`` under ``name`` if a timed phase is running."""
        if self.timed:
            self.counts[name] += amount

    def span(self, name: str, wait: bool = False) -> _SpanContext:
        return _SpanContext(self, name, wait)

    @staticmethod
    def set_request(request_id: Any) -> None:
        """Tag every span this task opens from now on with ``request_id``."""
        _request.set(request_id)

    # -- installing spans from outside ---------------------------------

    def _claim(self, obj: Any, attr: str) -> bool:
        """False if ``obj.attr`` is already wrapped (a shared chunk pool, say)."""
        key = (id(obj), attr)
        if key in self._wrapped:
            return False
        self._wrapped.add(key)
        return True

    def wrap(self, obj: Any, attr: str, name: str,
             after: Callable[[Any], None] | None = None) -> None:
        """Shadow ``obj.attr`` with an instance attribute that records a span.

        ``after(result)`` runs outside the span (count what came back).
        Wrapping the same attribute of the same object twice is a no-op.
        """
        if not self._claim(obj, attr):
            return
        inner = getattr(obj, attr)
        tracer = self

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = inner(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(obj, attr, traced)

    def wrap_async(self, obj: Any, attr: str, name: str, wait: bool = False,
                   after: Callable[[Any], None] | None = None) -> None:
        if not self._claim(obj, attr):
            return
        inner = getattr(obj, attr)
        tracer = self

        @functools.wraps(inner)
        async def traced(*args, **kwargs):
            with tracer.span(name, wait=wait):
                result = await inner(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        setattr(obj, attr, traced)

    def wrap_function(self, fn: Callable, name: str) -> Callable:
        """A span around a plain callable handed to an injection point."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return traced

    # -- reading spans back ---------------------------------------------

    def finish(self, clock) -> None:
        """Give every span its calibration scale and its children's time."""
        slowdown = clock.slowdown()
        for span in self.spans:
            span.scale = clock.scale_between(span.start, span.end, slowdown)
            span.tick_s = clock.tick_seconds_within(span.start, span.end)
            span.child_s = 0.0
        for span in self.spans:
            if span.parent >= 0:
                self.spans[span.parent].child_s += span.raw_s

    def select(self, name: str, phases: tuple[str, ...] | None = None) -> list[Span]:
        """Spans called ``name`` (in ``phases`` if given)."""
        return [s for s in self._by_name[name] if phases is None or s.phase in phases]

    def count(self, name: str, phases=None) -> int:
        return len(self.select(name, phases))

    def total_ms(self, name: str, phases=None) -> float:
        return 1e3 * sum(s.cal_s for s in self.select(name, phases))

    def self_ms(self, name: str, phases=None) -> float:
        return 1e3 * sum(s.self_cal_s for s in self.select(name, phases))

    def durations_ms(self, name: str, phases=None) -> list[float]:
        return [1e3 * s.cal_s for s in self.select(name, phases)]

    def busy_raw_s(self, phases: tuple[str, ...]) -> float:
        """Raw seconds the traced layers were on the CPU in ``phases``."""
        return sum(s.self_raw_s for s in self.spans if s.phase in phases)

    def check(self) -> list[str]:
        """Structural faults: a child outliving or outweighing its parent."""
        faults = []
        slack = 1e-6
        for index, span in enumerate(self.spans):
            if span.end < span.start:
                faults.append(f"span {index} {span.name} ends before it starts")
            if span.child_s > span.raw_s + slack:
                faults.append(
                    f"span {index} {span.name}: children {span.child_s:.6f}s "
                    f"exceed parent {span.raw_s:.6f}s"
                )
            if span.parent >= 0:
                parent = self.spans[span.parent]
                if span.start < parent.start - slack or span.end > parent.end + slack:
                    faults.append(f"span {index} {span.name} escapes its parent "
                                  f"{parent.name}")
        return faults

    def dump(self, path: str, limit: int = 200_000) -> None:
        rows = [
            {"i": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "request": s.request, "phase": s.phase,
             "scale": s.scale}
            for i, s in enumerate(self.spans[:limit])
        ]
        with open(path, "w") as handle:
            json.dump({"spans": rows, "truncated": len(self.spans) > limit,
                       "counts": dict(self.counts)}, handle)
