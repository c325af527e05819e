"""Unified telemetry: metrics registry, tracing, clocks, exporters.

The observability substrate every subsystem records into (the live data
behind the paper's Figure 18 dashboard). One process-wide
:class:`MetricsRegistry` collects counters, gauges and histograms from
tune, serve, the parameter server, the cluster manager and the gateway;
one :class:`Tracer` times nested spans; both read time from the
injectable clock in :mod:`repro.telemetry.clock`.

The tracer is the only thing in the product that measures a duration:
code that needs one (the gateway's latency histogram, a pool worker's
trial time) reads it off the span covering the work. The process
tracer starts disabled: its spans still time themselves, but none is
linked or kept, so the request path pays two clock reads per span and
nothing more. ``get_tracer().enabled = True`` turns it on for the whole
process (``repro telemetry --trace`` does); a ``Tracer()`` you construct
records from the start.

Typical use (an owner builds each family once, where it is built):

    from repro import telemetry

    registry = telemetry.get_registry()
    requests = telemetry.Counter("repro_demo_requests_total", "Requests.", registry)
    requests.inc(route="/train")  # per event: no registry lookup
    with telemetry.get_tracer().span("profile_network", model="mlp"):
        ...
    print(telemetry.render_prometheus(registry))

Tests install fresh components via :func:`set_registry`,
:func:`set_tracer` and :func:`~repro.telemetry.clock.set_clock`.
Metrics are always recorded; a reader filters what it wants. Spans are
recorded only while the tracer is enabled.
"""

from __future__ import annotations

from repro.telemetry.clock import Clock, ManualClock, SystemClock, get_clock, set_clock
from repro.telemetry.export import render_prometheus, snapshot, to_json
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    Counter,
    CounterChild,
    Gauge,
    Histogram,
    HistogramChild,
    Metric,
    MetricsRegistry,
)
from repro.telemetry.tracer import Span, Tracer

__all__ = [
    "Clock",
    "SystemClock",
    "ManualClock",
    "get_clock",
    "set_clock",
    "Counter",
    "CounterChild",
    "Gauge",
    "Histogram",
    "HistogramChild",
    "Metric",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "Span",
    "Tracer",
    "snapshot",
    "to_json",
    "render_prometheus",
    "get_registry",
    "set_registry",
    "get_tracer",
    "set_tracer",
    "reset",
]

_registry = MetricsRegistry()
_tracer = Tracer(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry all instrumentation records into."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process default; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous


def get_tracer() -> Tracer:
    """The process-wide tracer (disabled until someone enables it)."""
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process default; returns the previous one."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


def reset() -> None:
    """Clear every recorded metric and span in the defaults."""
    _registry.reset()
    _tracer.reset()
