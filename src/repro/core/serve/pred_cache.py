"""Prediction caching for the inference service (Clipper-inspired).

Section 2.3 cites Clipper's latency optimisations, caching among them.
This extension memoises results by input digest. Every prediction the
system makes goes through one: :meth:`Rafiki.query
<repro.core.system.Rafiki.query>` looks each row of a request up in its
job's cache and runs the ensemble only on the distinct rows that are
absent, so repeated inputs (the common case for UDF-driven analytics,
where the same image path appears in many rows) skip the forward
passes whichever front door they came through; the SQL engine's UDF
dispatcher keeps one per function, keyed by the scalar argument.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = ["PredictionCache"]


def _digest(array: np.ndarray) -> str:
    # dtype must be part of the key: int32 and float32 zeros of the same
    # shape share raw bytes, and serving one's cached prediction for the
    # other returns a wrong result.
    payload = np.ascontiguousarray(array)
    return hashlib.sha256(
        payload.tobytes()
        + str(payload.shape).encode("utf-8")
        + payload.dtype.str.encode("utf-8")
    ).hexdigest()


class PredictionCache:
    """An LRU result cache keyed by input digest."""

    def __init__(self, capacity: int = 1024):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def query_batch(
        self,
        batch: Any,
        predict_batch: Callable[[list[Any]], tuple[list[Any], bool]],
        key: Callable[[Any], Any] | None = None,
    ) -> list[Any]:
        """Serve many inputs with at most one underlying model call.

        Distinct inputs absent from the cache are collected in
        first-seen order and handed to ``predict_batch`` as one list;
        everything already cached — including duplicates *within* the
        batch — is served without touching the model. ``predict_batch``
        returns ``(results, remember)``: one result per input it was
        given, and whether they may be served again — ``False`` hands
        them to this batch only (an ensemble answering with a replica
        down must not have that answer outlive the outage). ``key``
        overrides the array digest for non-array inputs (e.g. SQL
        scalars). Returns results aligned with ``batch``.
        """
        keys = [
            key(item) if key is not None else _digest(np.asarray(item))
            for item in batch
        ]
        # Snapshot hits before inserting: a fill larger than capacity
        # may evict entries this very batch still needs.
        found: dict[Any, Any] = {}
        miss_keys: list[Any] = []
        miss_items: list[Any] = []
        for k, item in zip(keys, batch):
            if k in found:
                continue
            if k in self._entries:
                self._entries.move_to_end(k)
                found[k] = self._entries[k]
            else:
                found[k] = None
                miss_keys.append(k)
                miss_items.append(item)
        if miss_items:
            outputs, remember = predict_batch(miss_items)
            if len(outputs) != len(miss_items):
                raise ConfigurationError(
                    f"predict_batch returned {len(outputs)} results "
                    f"for {len(miss_items)} inputs"
                )
            found.update(zip(miss_keys, outputs))
            if remember:
                for k, value in zip(miss_keys, outputs):
                    self._entries[k] = value
                    if len(self._entries) > self.capacity:
                        self._entries.popitem(last=False)
        self.misses += len(miss_items)
        self.hits += len(keys) - len(miss_items)
        return [found[k] for k in keys]

    def invalidate_all(self) -> None:
        """Drop everything (call after re-deploying a model)."""
        self._entries.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __len__(self) -> int:
        return len(self._entries)
