"""The process-wide metrics registry: counters, gauges, histograms.

Modelled on the Prometheus client-library data model (and on how Tune
and TensorFlow centralise trial/step metrics): a metric is a named
*family* plus zero or more label sets, each label set owning its own
value.

There is one way to record: the owner of the events builds each family
where the owner is built, and per event records into it, or into a
child bound with ``labels()`` (the Prometheus client's idiom)::

    requests = Counter("repro_blockstore_requests_total", "...", registry)
    self._ok = requests.labels(node="dn-0", op="get", outcome="ok")
    self._heartbeats = Counter("repro_blockstore_heartbeats_total", "...", registry)
    ...
    self._ok.inc()                   # labels fixed where the owner is built
    self._heartbeats.inc(node=name)  # a label known only at the event

A bound counter child is its owner's count: ``child.count`` is all it
ever added, kept through a reset, so no owner keeps an integer beside
it. The series keeps the semantics below, so the two part only at a
reset. No record takes NaN or infinity, nor a counter a negative amount.

A histogram's child ``observe``s the same way (``observe_many`` records
a whole array into a label set), and an event gauge is a ``Gauge(...)``
its owner ``set``s. The lookups
(:meth:`MetricsRegistry.counter` and its siblings) are for readers, and
for state gauges: an owner registers a reader once, where it is built —
``registry.gauge(...).set_function(self, lambda s: len(s.pending))`` —
and the series is evaluated whenever someone looks. The registry holds
the owner weakly and the reader unbound (:mod:`repro.utils.owners`): it
keeps nothing alive, and once the owner is gone its series is too.

An owner's family joins its registry at its first record, or records
into the family already listed under its name, so it shows up in
snapshots exactly when a lookup at that record would have created it.
It records into the registry installed when its owner was built:
install the registry before building owners. A reset drops every
family, and each forgets its join and its values, so a live owner's
next record lists it again with only what came after; dropped gauge
readers stay dropped.

Every record is kept: there is no off switch, and filtering is left to
whoever reads a snapshot. Snapshots
(:meth:`MetricsRegistry.snapshot`) are plain JSON-serialisable dicts;
the text exposition lives in :mod:`repro.telemetry.export`.
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from math import inf
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.exceptions import TelemetryError
from repro.utils.owners import WeakReader

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


def _refused(metric: "Metric", value) -> TelemetryError:
    """A counter takes finite amounts >= 0, a histogram finite values."""
    wrong = "cannot decrease" if metric.kind == "counter" and value < 0 else "needs finite values"
    return TelemetryError(f"{metric.kind} {metric.name!r} {wrong} ({value})")


class Metric:
    """Base class: a named family of per-label-set values."""

    kind = "untyped"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry"):
        self.name = name
        self.help = help
        #: held weakly: the registry lists the family, not the reverse, so
        #: a dropped registry is freed with no cycle to wait on.
        self._registry = weakref.ref(registry)
        #: label key -> the value (a histogram: the buckets) of that set.
        self._values: dict = {}
        #: whether the registry lists this family (an owner-built family
        #: joins at its first record; see the module docstring).
        self._joined = False

    def _listed(self) -> "Metric":
        """This family, listed at its first record, or the one listed under
        its name (once its registry is gone, this family)."""
        registry = None if self._joined else self._registry()
        return self if registry is None else registry._join(self)

    def _drop(self) -> None:
        """Dropped by a registry reset: forget the join and every value."""
        self._joined = False
        self._values.clear()

    def snapshot(self) -> dict:
        """JSON-serialisable state of every label set of this family."""
        raise NotImplementedError

    def label_keys(self) -> list[_LabelKey]:
        """The label sets recorded so far (sorted)."""
        raise NotImplementedError


class Counter(Metric):
    """A monotonically increasing count (requests, trials, failures)."""

    kind = "counter"

    def inc(self, amount: float = 1, **labels) -> None:
        """Add ``amount`` (finite, >= 0) to the labelled counter."""
        if not 0 <= amount < inf:
            raise _refused(self, amount)
        values = self._listed()._values
        key = _label_key(labels)
        values[key] = values.get(key, 0.0) + float(amount)

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
    """One label set of a :class:`Counter`, bound once by its owner, and
    the owner's count: ``count`` is all it ever added, and no reset
    clears it (see the module docstring)."""

    __slots__ = ("_counter", "_key", "count")

    def __init__(self, counter: Counter, key: _LabelKey):
        self._counter = counter
        self._key = key
        self.count = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (finite, >= 0) to ``count`` and to the series."""
        counter = self._counter
        if not 0 <= amount < inf:
            raise _refused(counter, amount)
        self.count += amount
        self._counter = counter = counter._listed()
        values = counter._values
        values[self._key] = values.get(self._key, 0.0) + float(amount)


class Gauge(Metric):
    """A value that can go up and down (queue depth, bytes in use): per
    label set either pushed (:meth:`set`, event gauges) or read from its
    owner when someone looks (:meth:`set_function`, state gauges)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, registry: "MetricsRegistry"):
        super().__init__(name, help, registry)
        self._readers: dict[_LabelKey, WeakReader] = {}

    def _drop(self) -> None:
        super()._drop()
        self._readers.clear()

    def set(self, value: float, **labels) -> None:
        """Set the labelled gauge to ``value``."""
        gauge, key = self._listed(), _label_key(labels)
        gauge._readers.pop(key, None)
        gauge._values[key] = float(value)

    def set_function(self, owner, read: Callable[[object], float], /, **labels) -> None:
        """Make the labelled series evaluate ``read(owner)`` whenever it is looked at.

        The owner of the state registers once, where it is built; no
        mutation has to remember to publish. Registering again for the
        same label set replaces the reader, as :meth:`set` overwrites a
        value. The owner is held weakly and ``read`` must not hold it
        (:class:`~repro.utils.owners.WeakReader`): once the owner is
        gone, so is the series.
        """
        key = _label_key(labels)
        self._values.pop(key, None)
        self._readers[key] = WeakReader(owner, read)

    def _read(self, key: _LabelKey) -> float | None:
        """The reader's value for ``key``, or ``None`` without a live reader."""
        reader = self._readers.get(key)
        owner = reader.owner() if reader is not None else None
        return None if owner is None else float(reader.read(owner))

    def value(self, **labels) -> float:
        """Current gauge value for the label set (0 if never set)."""
        key = _label_key(labels)
        read = self._read(key)
        return self._values.get(key, 0.0) if read is None else read

    def label_keys(self) -> list[_LabelKey]:
        """The label sets that have a value right now (sorted); the readers
        of owners that are gone are dropped here."""
        readers = self._readers
        for key in [key for key, reader in readers.items() if reader.owner() is None]:
            del readers[key]
        return sorted([*self._values, *readers])

    def snapshot(self) -> dict:
        """``{label-string: value}`` for every label set of the family."""
        return {
            _label_string(k): self._values[k] if k in self._values else self._read(k)
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

    def _child(self, key: _LabelKey) -> _HistogramChild:
        child = self._values.get(key)
        if child is None:
            child = self._values[key] = _HistogramChild(len(self.buckets))
        return child

    def _record(self, key: _LabelKey, value: float) -> None:
        value = float(value)
        child = self._child(key)
        child.bucket_counts[bisect_left(self.buckets, value)] += 1
        child.sum += value
        child.count += 1

    def labels(self, **fixed) -> "HistogramChild":
        """The series of one label set, to ``observe`` with no lookup per event."""
        return HistogramChild(self, _label_key(fixed))

    def observe_many(self, values: Iterable[float], **labels) -> None:
        """Record a whole array of finite observations (vectorised)."""
        array = np.asarray(list(values) if not isinstance(values, np.ndarray) else values,
                           dtype=np.float64).ravel()
        if array.size == 0:
            return
        if not np.isfinite(array).all():
            raise _refused(self, array[~np.isfinite(array)][0])
        family = self._listed()
        child = family._child(_label_key(labels))
        slots = np.searchsorted(family._bounds_array, array, side="left")
        counts = np.bincount(slots, minlength=len(family.buckets) + 1)
        for i, n in enumerate(counts):
            child.bucket_counts[i] += int(n)
        child.sum += float(array.sum())
        child.count += int(array.size)

    def child_state(self, **labels) -> tuple[list[int], float, int]:
        """``(bucket counts, sum, count)`` for one label set."""
        child = self._values.get(_label_key(labels))
        if child is None:
            return [0] * (len(self.buckets) + 1), 0.0, 0
        return list(child.bucket_counts), child.sum, child.count

    def label_keys(self) -> list[_LabelKey]:
        """The label sets recorded so far (sorted)."""
        return sorted(self._values)

    def snapshot(self) -> dict:
        """Per-label-set bucket counts, plus the bounds once."""
        out: dict = {"bounds": list(self.buckets), "series": {}}
        for key in sorted(self._values):
            child = self._values[key]
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
        """Record one finite observation."""
        histogram = self._histogram
        if not -inf < value < inf:
            raise _refused(histogram, value)
        self._histogram = histogram = histogram._listed()
        histogram._record(self._key, value)


class MetricsRegistry:
    """Get-or-create home for every metric family in the process.

    One registry instance is installed process-wide (see
    :func:`repro.telemetry.get_registry`); each owner builds its families
    into the registry installed when the owner is built, so a test swaps
    the registry before building the owners it watches.
    """

    def __init__(self):
        self._metrics: dict[str, Metric] = {}

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
        """Drop every metric family (a fresh start for tests); each forgets
        its join and its values (see the module docstring)."""
        for metric in self._metrics.values():
            metric._drop()
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
