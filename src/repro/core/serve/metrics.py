"""Serving metrics: the time series behind Figures 10 and 13-16.

:class:`ServingMetrics` is the per-batch recorder a load run can be
given in place of the per-request
:class:`~repro.core.serve.loadgen.LoadTrace` (``run_load(...,
trace=ServingMetrics(...))``): one :class:`DispatchRecord` per batch
and one ``(time, count)`` pair per arrival burst, so a run of ten
million requests stays small. The figure benchmarks aggregate these.
Live counters are the front end's business
(``repro_serve_frontend_*``), not this module's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.utils.reservoir import Reservoir

__all__ = ["DispatchRecord", "TimelineRow", "ServingMetrics",
           "BATCH_SIZE_BUCKETS", "LATENCY_BUCKETS"]

#: request batch sizes (the Section 7.2.1 candidates and their doublings).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 48.0, 64.0, 128.0)

#: per-request latency in seconds, bracketing the tau = 0.56 s SLO.
LATENCY_BUCKETS = (0.05, 0.1, 0.25, 0.5, 0.56, 0.75, 1.0, 2.0, 5.0)


@dataclass(frozen=True)
class DispatchRecord:
    """One dispatched batch."""

    time: float
    served: int
    overdue: int
    batch_size: int
    subset: tuple[int, ...]
    accuracy: float
    exceeding_time_sum: float


@dataclass(frozen=True)
class TimelineRow:
    """Aggregates over one time bucket."""

    time: float
    arrival_rate: float
    serve_rate: float
    overdue_rate: float
    accuracy: float
    mean_models: float


@dataclass
class ServingMetrics:
    """Accumulates arrivals and dispatches during a serving run."""

    #: the SLO the exceeding time (Equation 5) is measured against.
    tau: float = 0.56
    #: ``a(M[v])`` of a model subset, e.g. ``EnsembleScorer.accuracy``.
    accuracy: Callable[[tuple[int, ...]], float] = lambda models: 0.0
    arrivals: list[tuple[float, int]] = field(default_factory=list)
    dispatches: list[DispatchRecord] = field(default_factory=list)
    dropped: int = 0
    #: uniform sample of per-request latencies for streaming quantiles.
    latencies: Reservoir = field(default_factory=lambda: Reservoir(capacity=8192))

    def record_arrivals(self, time: float, count: int) -> None:
        """Record ``count`` requests admitted at ``time``."""
        if count:
            self.arrivals.append((time, count))

    def record_shed(self, time, client, tenant, reason, seq=0) -> None:
        """Count one request refused or abandoned."""
        self.dropped += 1

    def record_batch(self, time: float, plan, outcome) -> None:
        """Record one completed batch from its :class:`BatchOutcome`."""
        latencies = np.asarray(outcome.latencies)
        self.latencies.add_many(latencies)
        self.record_dispatch(
            DispatchRecord(
                time=outcome.dispatched,
                served=outcome.take,
                overdue=outcome.overdue,
                batch_size=outcome.batch_size,
                subset=outcome.models,
                accuracy=self.accuracy(outcome.models),
                exceeding_time_sum=float(np.sum(np.maximum(latencies - self.tau, 0.0))),
            )
        )

    def record_dispatch(self, record: DispatchRecord) -> None:
        """Record one dispatched batch."""
        self.dispatches.append(record)

    def latency_quantile(self, q: float) -> float:
        """Estimated latency quantile (e.g. 0.99 for the p99) in seconds."""
        return self.latencies.quantile(q)

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------

    @property
    def total_arrived(self) -> int:
        return sum(count for _, count in self.arrivals)

    @property
    def total_served(self) -> int:
        return sum(d.served for d in self.dispatches)

    @property
    def total_overdue(self) -> int:
        return sum(d.overdue for d in self.dispatches)

    def overdue_fraction(self, since: float = 0.0) -> float:
        served = sum(d.served for d in self.dispatches if d.time >= since)
        overdue = sum(d.overdue for d in self.dispatches if d.time >= since)
        return overdue / served if served else 0.0

    def mean_accuracy(self, since: float = 0.0) -> float:
        """Request-weighted mean surrogate accuracy of served batches."""
        rows = [(d.served, d.accuracy) for d in self.dispatches if d.time >= since]
        total = sum(n for n, _ in rows)
        if not total:
            return 0.0
        return sum(n * a for n, a in rows) / total

    def mean_exceeding_time(self, since: float = 0.0) -> float:
        """Equation 5 over all served requests in the window."""
        rows = [d for d in self.dispatches if d.time >= since]
        total = sum(d.served for d in rows)
        if not total:
            return 0.0
        return sum(d.exceeding_time_sum for d in rows) / total

    # ------------------------------------------------------------------
    # time series
    # ------------------------------------------------------------------

    def timeline(self, bucket: float, start: float = 0.0) -> list[TimelineRow]:
        """Bucketed rates and accuracies from ``start`` to the last event —
        the curves of Figures 13-16."""
        times = [t for t, _ in self.arrivals] + [d.time for d in self.dispatches]
        end = max(times, default=start)
        buckets = int(np.ceil((end - start) / bucket)) or 1
        arrived = np.zeros(buckets)
        served = np.zeros(buckets)
        overdue = np.zeros(buckets)
        acc_weighted = np.zeros(buckets)
        model_weighted = np.zeros(buckets)

        def index_of(t: float) -> int | None:
            if t < start or t >= start + buckets * bucket:
                return None
            return int((t - start) / bucket)

        for t, count in self.arrivals:
            i = index_of(t)
            if i is not None:
                arrived[i] += count
        for d in self.dispatches:
            i = index_of(d.time)
            if i is None:
                continue
            served[i] += d.served
            overdue[i] += d.overdue
            acc_weighted[i] += d.served * d.accuracy
            model_weighted[i] += d.served * len(d.subset)

        rows = []
        for i in range(buckets):
            rows.append(
                TimelineRow(
                    time=start + (i + 0.5) * bucket,
                    arrival_rate=arrived[i] / bucket,
                    serve_rate=served[i] / bucket,
                    overdue_rate=overdue[i] / bucket,
                    accuracy=acc_weighted[i] / served[i] if served[i] else 0.0,
                    mean_models=model_weighted[i] / served[i] if served[i] else 0.0,
                )
            )
        return rows
