"""Distributed parameter server (Section 6.2).

A versioned key-value store for model parameters with an in-memory LRU
cache in front of cold storage (the :class:`~repro.data.store.DataStore`
standing in for HDFS). Frequently accessed parameters — e.g. the
current-best checkpoint during collaborative hyper-parameter tuning —
stay cached; everything else is persisted and re-read on demand.

For scale-out, :class:`~repro.paramserver.sharded.ShardedParameterServer`
serves the same index through several failover cache shards, behind
the same API; replication is the block store's job alone.
"""

from repro.paramserver.cache import LRUCache
from repro.paramserver.server import ParameterEntry, ParameterServer, shape_pool
from repro.paramserver.sharded import Shard, ShardedParameterServer

__all__ = [
    "ParameterServer",
    "ParameterEntry",
    "LRUCache",
    "ShardedParameterServer",
    "Shard",
    "shape_pool",
]
