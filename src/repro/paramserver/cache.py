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

    When ``name`` is given, the cache counts its hits, misses and
    evictions in the telemetry registry and registers readers for its
    byte usage and hit ratio, all under a ``cache=<name>`` label, bound
    where the cache is built.
    """

    def __init__(self, capacity_bytes: int, size_of: Callable[[Any], int],
                 name: str | None = None):
        if capacity_bytes < 0:
            raise ConfigurationError(f"capacity_bytes must be >= 0, got {capacity_bytes}")
        self.capacity_bytes = int(capacity_bytes)
        self._size_of = size_of
        self.name = name
        self._entries: OrderedDict[str, tuple[Any, int]] = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: a named cache's bound ``cache=<name>`` counters.
        self._hit_count = self._miss_count = self._eviction_count = None
        if name is not None:
            registry = telemetry.get_registry()
            self._hit_count = telemetry.Counter(
                "repro_cache_hits_total", "Named-cache lookup hits.", registry
            ).labels(cache=name)
            self._miss_count = telemetry.Counter(
                "repro_cache_misses_total", "Named-cache lookup misses.", registry
            ).labels(cache=name)
            self._eviction_count = telemetry.Counter(
                "repro_cache_evictions_total", "Named-cache LRU evictions.", registry
            ).labels(cache=name)
            registry.gauge(
                "repro_cache_used_bytes", "Bytes held by a named cache."
            ).set_function(lambda: self._used, cache=name)
            registry.gauge(
                "repro_cache_hit_ratio", "Lifetime hit ratio of a named cache."
            ).set_function(lambda: self.hit_rate, cache=name)

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
            self.misses += 1
            if self._miss_count is not None:
                self._miss_count.inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if self._hit_count is not None:
            self._hit_count.inc()
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
        evicted = 0
        while self._used > self.capacity_bytes and self._entries:
            _evicted_key, (_value, evicted_size) = self._entries.popitem(last=False)
            self._used -= evicted_size
            self.evictions += 1
            evicted += 1
        if evicted and self._eviction_count is not None:
            self._eviction_count.inc(evicted)

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
