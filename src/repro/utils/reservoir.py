"""Reservoir sampling (Algorithm R) for streaming quantiles.

Serving runs push millions of request latencies; storing them all for a
p99 would dwarf the simulation itself. A fixed-size uniform reservoir
keeps an unbiased sample instead. ``add_many`` vectorises the
acceptance test so bulk inserts stay cheap once the stream is long.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["Reservoir"]


class Reservoir:
    """A fixed-capacity uniform sample over a stream of floats."""

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._values = np.empty(self.capacity, dtype=np.float64)
        self._count = 0  # stream length seen so far
        self._rng = np.random.default_rng(0)
        #: quantiles of the current sample, dropped when it changes: deep
        #: into a stream most batches leave the sample as it was.
        self._quantiles: dict[float, float] = {}

    def __len__(self) -> int:
        return min(self._count, self.capacity)

    @property
    def stream_length(self) -> int:
        return self._count

    def add_many(self, values: np.ndarray) -> None:
        """Offer a batch of values to the reservoir (Algorithm R, vectorised)."""
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        # Fill the reservoir directly while it has room.
        if self._count < self.capacity:
            room = self.capacity - self._count
            head = values[:room]
            self._values[self._count : self._count + head.size] = head
            self._count += head.size
            self._quantiles.clear()
            values = values[room:]
            if values.size == 0:
                return
        # Algorithm R acceptance for the rest: element with stream index
        # t (1-based) survives with probability capacity / t.
        stream_indices = self._count + 1 + np.arange(values.size)
        accepted = self._rng.random(values.size) < self.capacity / stream_indices
        for value in values[accepted]:
            slot = int(self._rng.integers(0, self.capacity))
            self._values[slot] = value
            self._quantiles.clear()
        self._count += values.size

    def values(self) -> np.ndarray:
        """A copy of the current sample."""
        return self._values[: len(self)].copy()

    def quantile(self, q: float) -> float:
        """Quantile estimate from the sample (q in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"q must be in [0, 1], got {q}")
        if len(self) == 0:
            raise ConfigurationError("reservoir is empty")
        if q not in self._quantiles:
            # np.quantile's default (linear) estimate, bit for bit, without
            # its ~60 us of per-call overhead: the serving front end asks
            # after every batch.
            sample = self._values[: len(self)]
            position = q * (sample.size - 1)
            low = int(position)
            high = min(low + 1, sample.size - 1)
            ordered = np.partition(sample, (low, high))
            a, b, t = ordered[low], ordered[high], position - low
            self._quantiles[q] = float(
                b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
            )
        return self._quantiles[q]
