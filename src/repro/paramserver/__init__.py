"""Distributed parameter server (Section 6.2).

A versioned key-value store for model parameters with an in-memory LRU
cache in front of cold storage (the :class:`~repro.data.store.DataStore`
standing in for HDFS). Frequently accessed parameters — e.g. the
current-best checkpoint during collaborative hyper-parameter tuning —
stay cached; everything else is persisted and re-read on demand.

There is one class, :class:`ParameterServer`: one index over one store,
served through ``shards >= 1`` failover cache shards; replication is the
block store's job alone. ``ShardedParameterServer(...)`` is a
constructor of that class taking the pre-merge keywords.
"""

from repro.paramserver.cache import LRUCache
from repro.paramserver.server import (
    ParameterEntry,
    ParameterServer,
    Shard,
    ShardedParameterServer,
)

__all__ = [
    "ParameterServer",
    "ParameterEntry",
    "LRUCache",
    "ShardedParameterServer",
    "Shard",
]
