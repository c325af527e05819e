"""A byte-budgeted LRU cache."""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from repro import telemetry
from repro.exceptions import ConfigurationError

__all__ = ["LRUCache"]


class LRUCache:
    """LRU cache keyed by string with a total byte budget.

    ``size_of`` computes the cost of each value; entries are evicted
    least-recently-used-first when the budget is exceeded. A single
    value larger than the whole budget is simply not cached.

    Its hits, misses and evictions are the counts of counters it binds
    under a ``cache=<name>`` label, beside readers for its byte usage and
    hit ratio.
    """

    def __init__(self, capacity_bytes: int, size_of: Callable[[Any], int], name: str):
        if capacity_bytes < 0:
            raise ConfigurationError(f"capacity_bytes must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._size_of = size_of
        self.name = name
        self._entries: OrderedDict[str, tuple[Any, int]] = OrderedDict()
        self._used = 0
        registry = telemetry.get_registry()
        self._hits, self._misses, self._evictions = (
            telemetry.Counter(family, help, registry).labels(cache=name)
            for family, help in (
                ("repro_cache_hits_total", "Named-cache lookup hits."),
                ("repro_cache_misses_total", "Named-cache lookup misses."),
                ("repro_cache_evictions_total", "Named-cache LRU evictions."),
            )
        )
        registry.gauge(
            "repro_cache_used_bytes", "Bytes held by a named cache."
        ).set_function(self, lambda cache: cache._used, cache=name)
        registry.gauge(
            "repro_cache_hit_ratio", "Lifetime hit ratio of a named cache."
        ).set_function(self, lambda cache: cache.hit_rate, cache=name)

    @property
    def hits(self) -> int:
        return self._hits.count

    @property
    def misses(self) -> int:
        return self._misses.count

    @property
    def evictions(self) -> int:
        return self._evictions.count

    @property
    def used_bytes(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Any | None:
        """Return the cached value or ``None``; updates recency and stats."""
        entry = self._entries.get(key)
        if entry is None:
            self._misses.inc()
            return None
        self._entries.move_to_end(key)
        self._hits.inc()
        return entry[0]

    def put(self, key: str, value: Any) -> None:
        """Insert/overwrite ``key`` and evict as needed."""
        size = int(self._size_of(value))
        if key in self._entries:
            self._used -= self._entries.pop(key)[1]
        if size > self.capacity_bytes:
            return
        self._entries[key] = (value, size)
        self._used += size
        while self._used > self.capacity_bytes and self._entries:
            _evicted_key, (_value, evicted_size) = self._entries.popitem(last=False)
            self._used -= evicted_size
            self._evictions.inc()

    def invalidate(self, key: str) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._used -= entry[1]

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
