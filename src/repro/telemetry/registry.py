"""The process-wide metrics registry: counters, gauges, histograms.

Modelled on the Prometheus client-library data model (and on how Tune
and TensorFlow centralise trial/step metrics): a metric is a named
*family* plus zero or more label sets, each label set owning its own
value. Instrumented code asks the registry for a metric by name
(get-or-create, so call sites need no registration ceremony) and
records into it:

    registry.counter("repro_gateway_requests_total").inc(route="/train")
    registry.gauge("repro_serve_frontend_scale_hint").set(1)
    registry.histogram("repro_serve_batch_size").observe(32)

Histograms and *event* gauges are pushed like that. A gauge showing
state its owner already holds (queue depth, stored bytes) is not: the
owner registers a reader once, where it is built —
``gauge.set_function(lambda: len(self.pending))`` — and the series is
evaluated whenever someone looks. It lives until its owner re-registers
or the registry is reset, and the registry keeps the reader — hence the
owner — reachable for that long.

A counter on a hot path is bound the same way, where its owner is built,
the Prometheus client's ``labels()`` idiom::

    requests = Counter("repro_blockstore_requests_total", "...", registry)
    self._ok = requests.labels(node="dn-0", op="get", outcome="ok")
    ...
    self._ok.inc()  # per event: no registry lookup, no label sort

A histogram's ``labels()`` binds a child to ``observe`` the same way.
A bound child creates no series until its first ``inc``. A family the
owner builds itself, as above, joins its registry at that first record
(or records into the family already listed under that name from then
on), so it shows up in snapshots exactly when a per-event
``registry.counter(...)`` lookup would have created it; a family bound
from ``registry.counter(...)`` is listed from that lookup. Either way
the child records into the registry installed when its owner was built:
install the registry (or reset it) before building owners, as for gauge
readers.

Recording is a no-op (and no reader is evaluated) while the registry is
disabled, so instrumented hot paths cost one attribute check when
telemetry is off. Snapshots
(:meth:`MetricsRegistry.snapshot`) are plain JSON-serialisable dicts;
the text exposition lives in :mod:`repro.telemetry.export`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.exceptions import TelemetryError

__all__ = [
    "Counter",
    "CounterChild",
    "Gauge",
    "Histogram",
    "HistogramChild",
    "Metric",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
]

#: default histogram bucket upper bounds (seconds-flavoured).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_string(key: _LabelKey) -> str:
    return ",".join(f"{name}={value}" for name, value in key)


class Metric:
    """Base class: a named family of per-label-set values."""

    kind = "untyped"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry"):
        self.name = name
        self.help = help
        self._registry = registry
        #: whether the registry lists this family (an owner-built counter
        #: joins at its first record; see the module docstring).
        self._joined = False

    @property
    def enabled(self) -> bool:
        """Whether recording into this metric currently does anything."""
        return self._registry.enabled

    def snapshot(self) -> dict:
        """JSON-serialisable state of every label set of this family."""
        raise NotImplementedError

    def label_keys(self) -> list[_LabelKey]:
        """The label sets recorded so far (sorted)."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count (requests, trials, failures)."""

    kind = "counter"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry"):
        super().__init__(name, help, registry)
        self._values: dict[_LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` (must be >= 0) to the labelled counter."""
        if not self.enabled:
            return
        if amount < 0:
            raise TelemetryError(f"counter {self.name!r} cannot decrease ({amount})")
        family = self if self._joined else self._registry._join(self)
        key = _label_key(labels)
        family._values[key] = family._values.get(key, 0.0) + float(amount)

    def labels(self, **fixed) -> "CounterChild":
        """The series of one label set, to ``inc`` with no lookup per event."""
        return CounterChild(self, _label_key(fixed))

    def value(self, **labels) -> float:
        """Current count for the given label set (0 if never recorded)."""
        return self._values.get(_label_key(labels), 0.0)

    def label_keys(self) -> list[_LabelKey]:
        """The label sets recorded so far (sorted)."""
        return sorted(self._values)

    def snapshot(self) -> dict:
        """``{label-string: count}`` for every recorded label set."""
        return {_label_string(k): self._values[k] for k in sorted(self._values)}


class CounterChild:
    """One label set of a :class:`Counter`, bound once by its owner."""

    __slots__ = ("_counter", "_key")

    def __init__(self, counter: Counter, key: _LabelKey):
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0); a no-op while the registry is disabled."""
        counter = self._counter
        if not counter._registry.enabled:
            return
        if amount < 0:
            raise TelemetryError(f"counter {counter.name!r} cannot decrease ({amount})")
        if not counter._joined:
            counter = self._counter = counter._registry._join(counter)
        values = counter._values
        values[self._key] = values.get(self._key, 0.0) + float(amount)


class Gauge(Metric):
    """A value that can go up and down (queue depth, bytes in use): per
    label set either pushed (:meth:`set`, event gauges) or read from its
    owner when someone looks (:meth:`set_function`, state gauges)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry"):
        super().__init__(name, help, registry)
        self._values: dict[_LabelKey, float] = {}
        self._readers: dict[_LabelKey, Callable[[], float]] = {}

    def set(self, value: float, **labels) -> None:
        """Set the labelled gauge to ``value``."""
        if not self.enabled:
            return
        key = _label_key(labels)
        self._readers.pop(key, None)
        self._values[key] = float(value)

    def set_function(self, read: Callable[[], float], **labels) -> None:
        """Make the labelled series evaluate ``read()`` whenever it is looked at.

        The owner of the state registers once, where it is built; no
        mutation has to remember to publish. Registering again for the
        same label set replaces the reader, as :meth:`set` overwrites a
        value. The reader (and what it closes over) is held strongly
        until replaced or the registry is reset. While the registry is
        disabled nothing is evaluated and the series does not appear.
        """
        key = _label_key(labels)
        self._values.pop(key, None)
        self._readers[key] = read

    def inc(self, amount: float = 1.0, **labels) -> None:
        """Add ``amount`` to the labelled gauge."""
        if not self.enabled:
            return
        key = _label_key(labels)
        if key in self._readers:
            raise TelemetryError(
                f"gauge {self.name!r}{{{_label_string(key)}}} is function-backed"
            )
        self._values[key] = self._values.get(key, 0.0) + float(amount)

    def dec(self, amount: float = 1.0, **labels) -> None:
        """Subtract ``amount`` from the labelled gauge."""
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        """Current gauge value for the label set (0 if never set)."""
        key = _label_key(labels)
        if key in self._readers and self.enabled:
            return float(self._readers[key]())
        return self._values.get(key, 0.0)

    def label_keys(self) -> list[_LabelKey]:
        """The label sets that have a value right now (sorted)."""
        if not self.enabled:
            return sorted(self._values)
        return sorted([*self._values, *self._readers])

    def snapshot(self) -> dict:
        """``{label-string: value}`` for every label set of the family."""
        readers = self._readers
        return {
            _label_string(k): float(readers[k]()) if k in readers else self._values[k]
            for k in self.label_keys()
        }


class _HistogramChild:
    """Bucket counts, sum and count for one label set."""

    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, num_buckets: int):
        # one slot per finite bound plus the +Inf overflow slot
        self.bucket_counts = [0] * (num_buckets + 1)
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Fixed-bucket histogram with cumulative-``le`` semantics.

    A bucket with upper bound ``b`` counts observations ``<= b``
    (exactly the Prometheus convention, so boundary values land in the
    bucket whose bound they equal); everything above the largest bound
    falls into the implicit ``+Inf`` bucket.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        registry: "MetricsRegistry",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help, registry)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name!r} buckets must be non-empty and increasing, got {buckets}"
            )
        self.buckets = bounds
        self._bounds_array = np.asarray(bounds, dtype=np.float64)
        self._children: dict[_LabelKey, _HistogramChild] = {}

    def _child(self, key: _LabelKey) -> _HistogramChild:
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = _HistogramChild(len(self.buckets))
        return child

    def _record(self, key: _LabelKey, value: float) -> None:
        value = float(value)
        child = self._child(key)
        child.bucket_counts[bisect_left(self.buckets, value)] += 1
        child.sum += value
        child.count += 1

    def observe(self, value: float, **labels) -> None:
        """Record one observation into the labelled histogram."""
        if not self.enabled:
            return
        family = self if self._joined else self._registry._join(self)
        family._record(_label_key(labels), value)

    def labels(self, **fixed) -> "HistogramChild":
        """The series of one label set, to ``observe`` with no lookup per event."""
        return HistogramChild(self, _label_key(fixed))

    def observe_many(self, values: Iterable[float], **labels) -> None:
        """Record a whole array of observations (vectorised)."""
        if not self.enabled:
            return
        array = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                           dtype=np.float64).ravel()
        if array.size == 0:
            return
        child = self._child(_label_key(labels))
        slots = np.searchsorted(self._bounds_array, array, side="left")
        counts = np.bincount(slots, minlength=len(self.buckets) + 1)
        for i, n in enumerate(counts):
            child.bucket_counts[i] += int(n)
        child.sum += float(array.sum())
        child.count += int(array.size)

    def child_state(self, **labels) -> tuple[list[int], float, int]:
        """``(bucket counts, sum, count)`` for one label set."""
        child = self._children.get(_label_key(labels))
        if child is None:
            return [0] * (len(self.buckets) + 1), 0.0, 0
        return list(child.bucket_counts), child.sum, child.count

    def label_keys(self) -> list[_LabelKey]:
        """The label sets recorded so far (sorted)."""
        return sorted(self._children)

    def snapshot(self) -> dict:
        """Per-label-set bucket counts, plus the bounds once."""
        out: dict = {"bounds": list(self.buckets), "series": {}}
        for key in sorted(self._children):
            child = self._children[key]
            out["series"][_label_string(key)] = {
                "buckets": list(child.bucket_counts),
                "sum": child.sum,
                "count": child.count,
            }
        return out


class HistogramChild:
    """One label set of a :class:`Histogram`, bound once by its owner."""

    __slots__ = ("_histogram", "_key")

    def __init__(self, histogram: Histogram, key: _LabelKey):
        self._histogram = histogram
        self._key = key

    def observe(self, value: float) -> None:
        """Record one observation; a no-op while the registry is disabled."""
        histogram = self._histogram
        if not histogram._registry.enabled:
            return
        if not histogram._joined:
            histogram = self._histogram = histogram._registry._join(histogram)
        histogram._record(self._key, value)


class MetricsRegistry:
    """Get-or-create home for every metric family in the process.

    One registry instance is installed process-wide (see
    :func:`repro.telemetry.get_registry`); instrumented modules fetch
    metrics from it by name at record time, so swapping the registry in
    a test re-routes all subsequent recording — except into the gauge
    readers and bound counters of owners built before the swap.
    """

    def __init__(self, enabled: bool = True):
        self._metrics: dict[str, Metric] = {}
        self.enabled = bool(enabled)

    def enable(self) -> None:
        """Turn recording on."""
        self.enabled = True

    def disable(self) -> None:
        """Turn recording off (instrumented paths become no-ops)."""
        self.enabled = False

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name, help, self, **kwargs)
            metric._joined = True
        elif not isinstance(metric, cls):
            raise TelemetryError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}"
            )
        return metric

    def _join(self, family: Metric) -> Metric:
        """List an owner-built ``family`` at its first record, or return the
        family already listed under its name (see the module docstring)."""
        if self._metrics.setdefault(family.name, family) is family:
            family._joined = True
            return family
        return self._get_or_create(type(family), family.name, family.help)

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the named :class:`Counter`."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the named :class:`Gauge`."""
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get or create the named :class:`Histogram`.

        The bucket bounds are fixed by whichever call creates the
        family first; later calls may omit (or repeat) them.
        """
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Metric | None:
        """The named metric, or ``None`` if nothing recorded it yet."""
        return self._metrics.get(name)

    def metrics(self) -> list[Metric]:
        """Every registered metric family, sorted by name."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop every metric family (a fresh start for tests)."""
        self._metrics.clear()

    def snapshot(self) -> dict:
        """The whole registry as one JSON-serialisable dict.

        Shape: ``{"counters"|"gauges"|"histograms": {name: {"help":
        ..., "values"|...}}}`` with names and label sets sorted, so two
        identical runs produce identical snapshots.
        """
        out: dict = {"counters": {}, "gauges": {}, "histograms": {}}
        section = {"counter": "counters", "gauge": "gauges", "histogram": "histograms"}
        for metric in self.metrics():
            out[section[metric.kind]][metric.name] = {
                "help": metric.help,
                **(
                    {"values": metric.snapshot()}
                    if metric.kind != "histogram"
                    else metric.snapshot()
                ),
            }
        return out
