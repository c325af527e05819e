"""The parameter-server serving tier: cache shards over the block store.

Section 6.2 describes the parameter server as a hot cache in front of
HDFS, and HDFS is the one place bytes are replicated. This module
follows that split:

* **one metadata plane** — :class:`ShardedParameterServer` *is* a
  :class:`~repro.paramserver.server.ParameterServer`: one index of
  entries over one :class:`~repro.data.store.DataStore` namespace (the
  namenode role). Every version is pickled, chunked, placed and
  replicated exactly once, by the
  :class:`~repro.data.blockstore.BlockStore` underneath — the only
  component that places, re-replicates, repairs and audits bytes;
* **a serving tier of shards** — a :class:`Shard` holds no durable
  state: an LRU cache, a circuit breaker, a liveness flag and (when
  cluster-registered) a hosting container. A ``put`` or ``get`` walks
  the key's rendezvous preference order to the first live shard whose
  breaker admits it, writes or reads the value once through the index,
  and uses that shard's cache. Killing a shard drops its cache and
  moves its keys to the next shard in their order; nothing is copied.

The coordinator keeps the exact :class:`ParameterServer` API, so every
caller — CoStudy masters, tuning workers, the serving facade — works
unchanged, and ``ShardedParameterServer(shards=1, replicas=1)`` answers
bit-for-bit what a single ``ParameterServer`` answers.

Chaos integration: each shard operation passes through a
``paramserver.shard.<name>.<push|pull>`` fault point (so plans can kill
or slow one shard) before the index's own ``paramserver.push``/``pull``
points fire; injected faults feed the shard's
:class:`~repro.utils.retry.CircuitBreaker` and trigger failover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import chaos, telemetry
from repro.cluster.container import ContainerRole
from repro.cluster.manager import JobKind
from repro.cluster.membership import (
    HostedGroup,
    Member,
    failover,
    member_breaker,
    preference_order,
)
from repro.data.blockstore import BlockStore
from repro.data.store import DataStore
from repro.exceptions import (
    ConfigurationError,
    ParameterServerError,
)
from repro.paramserver.cache import LRUCache
from repro.paramserver.server import ParameterEntry, ParameterServer, _state_size
from repro.tenancy import TenantRegistry
from repro.utils.retry import CircuitBreaker, RetryPolicy

__all__ = ["ShardedParameterServer", "Shard"]


@dataclass(kw_only=True)
class Shard(Member):
    """One serving shard: a hot cache plus liveness bookkeeping."""

    cache: LRUCache


class ShardedParameterServer(ParameterServer, HostedGroup):
    """One parameter index served through failover cache shards.

    ``cache_bytes`` is the *total* hot-cache budget, split evenly across
    shards — scaling out does not multiply memory. ``retry`` is applied
    around each individual shard operation, exactly where the single
    server applies it. ``replicas`` is the chunk replication factor of
    the ``BlockStore(nodes=shards, replicas=replicas)`` built underneath;
    pass ``block_store=`` to serve over an existing store (whose own
    factor then rules), or ``store_factory`` to supply the index's whole
    :class:`DataStore`. ``tenants`` charges each stored version's
    ``ps_bytes`` — once, whatever the replication factor.
    """

    _JOB_KIND = JobKind.PARAMSERVER
    _ROLE = ContainerRole.PARAMETER

    def __init__(
        self,
        shards: int = 4,
        replicas: int = 2,
        cache_bytes: int = 256 * 1024 * 1024,
        retry: RetryPolicy | None = None,
        store_factory: Callable[[str], DataStore] | None = None,
        breaker_factory: Callable[[str], CircuitBreaker] | None = None,
        block_store: BlockStore | None = None,
        tenants: TenantRegistry | None = None,
    ):
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        if store_factory is not None:
            store = store_factory("ps")
            if block_store is not None and store.blocks is not block_store:
                raise ConfigurationError(
                    "store_factory built a store over a different block store"
                )
        else:
            store = DataStore(
                "ps-backing",
                block_store=block_store or BlockStore(nodes=shards, replicas=replicas),
                tenants=tenants,
            )
        super().__init__(
            store=store, cache_bytes=cache_bytes, retry=retry, tenants=tenants
        )
        per_shard_cache = max(1, cache_bytes // shards)
        self._members: list[Shard] = [
            Shard(
                name=name,
                breaker=member_breaker(breaker_factory, "paramserver", name),
                cache=LRUCache(
                    per_shard_cache, size_of=_state_size, name=f"paramserver-{name}"
                ),
            )
            for name in (f"ps-{i}" for i in range(shards))
        ]
        self._by_name = {shard.name: shard for shard in self._members}
        self._publish_live_gauge()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    @property
    def block_store(self) -> BlockStore:
        """The store that places and replicates every value's chunks."""
        return self._store.blocks

    @property
    def replicas(self) -> int:
        """The chunk replication factor (the store's, clamped to its nodes)."""
        return self.block_store.replicas

    @property
    def rereplications(self) -> int:
        return self.block_store.rereplications

    @property
    def num_shards(self) -> int:
        return len(self._members)

    @property
    def shards(self) -> list[Shard]:
        """The shard records (read-only use: tests, benchmarks, repr)."""
        return list(self._members)

    @property
    def cache(self) -> LRUCache:
        """The hot cache — only meaningful with a single shard.

        Exists so ``ShardedParameterServer(shards=1, replicas=1)`` is a
        drop-in for ``ParameterServer`` everywhere, including callers
        that inspect cache statistics.
        """
        if len(self._members) != 1:
            raise ConfigurationError(
                "a multi-shard server has per-shard caches; iterate .shards"
            )
        return self._members[0].cache

    def _caches(self) -> list[LRUCache]:
        return [shard.cache for shard in self._members]

    def cache_stats(self) -> dict[str, float]:
        """Aggregate hit/miss/eviction counts across every shard cache."""
        hits = sum(s.cache.hits for s in self._members)
        misses = sum(s.cache.misses for s in self._members)
        return {
            "hits": hits,
            "misses": misses,
            "evictions": sum(s.cache.evictions for s in self._members),
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        }

    def live_shards(self) -> list[Shard]:
        self._refresh_liveness()
        return [shard for shard in self._members if shard.alive]

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------

    def kill_shard(self, name: str) -> None:
        """Kill a shard directly: its cache is gone, its keys fail over."""
        shard = self._shard_named(name)
        if shard.alive:
            self._member_down(shard)

    def revive_shard(self, name: str) -> None:
        """Bring a killed shard back, cold, to serve its keys again."""
        shard = self._shard_named(name)
        if not shard.alive:
            shard.alive = True
            self._member_up(shard, same_host=True)

    def _shard_named(self, name: str) -> Shard:
        if name not in self._by_name:
            raise ConfigurationError(f"unknown shard {name!r}")
        return self._by_name[name]

    def _member_down(self, shard: Shard) -> None:
        shard.alive = False
        shard.deaths += 1
        shard.cache.clear()
        telemetry.get_registry().counter(
            "repro_paramserver_shard_deaths_total",
            "Parameter-server shard deaths observed.",
        ).inc(shard=shard.name)
        self._publish_live_gauge()

    def _member_up(self, shard: Shard, same_host: bool) -> None:
        # A shard holds nothing durable: wherever it restarts, it starts cold.
        self._publish_live_gauge()

    def _publish_live_gauge(self) -> None:
        telemetry.get_registry().gauge(
            "repro_paramserver_shards_live",
            "Parameter-server shards currently alive.",
        ).set(sum(1 for s in self._members if s.alive))

    def repair(self) -> int:
        """Restore the chunk replication factor; return copies made."""
        return self._store.repair()

    # ------------------------------------------------------------------
    # the ParameterServer API, routed through the shards
    # ------------------------------------------------------------------

    def put(
        self,
        key: str,
        state: dict[str, np.ndarray],
        model: str = "",
        dataset: str = "",
        performance: float = float("nan"),
        public: bool = True,
        **extra,
    ) -> ParameterEntry:
        """Store a new version through the key's first healthy shard."""
        return self._serve(
            key, "push",
            lambda shard: self._put_once(
                shard.cache, key, state, model, dataset, performance, public, **extra
            ),
        )

    def get(self, key: str, version: int | None = None) -> dict[str, np.ndarray]:
        """Fetch parameters, failing over through the shards as needed."""
        return self._serve(
            key, "pull", lambda shard: self._get_once(shard.cache, key, version)
        )

    def _serve(self, key: str, op: str, fn: Callable[[Shard], Any]) -> Any:
        """Run ``fn`` on the first live, breaker-admitted shard for ``key``.

        One coordinator->shard operation is: the shard's fault point,
        then ``fn``, under the retry policy, counted per shard.
        """
        self._refresh_liveness()
        registry = telemetry.get_registry()
        requests = registry.counter(
            "repro_paramserver_shard_requests_total",
            "Coordinator->shard operations, by shard, op and outcome.",
        )
        failovers = registry.counter(
            "repro_paramserver_failovers_total",
            "Shard operations redirected to another shard, by failed shard.",
        )

        def attempt(shard: Shard) -> Any:
            def once():
                chaos.fire(f"paramserver.shard.{shard.name}.{op}")
                return fn(shard)

            try:
                if self.retry is not None:
                    result = self.retry.call(once, name=f"paramserver.{op}")
                else:
                    result = once()
            except Exception:
                requests.inc(shard=shard.name, op=op, outcome="error")
                raise
            requests.inc(shard=shard.name, op=op, outcome="ok")
            return result

        served = failover(
            (s for s in preference_order(key, self._members) if s.alive),
            attempt,
            lambda shard: failovers.inc(shard=shard.name, op=op),
        )
        if not served:
            raise ParameterServerError(
                f"no live parameter-server shard can serve {key!r}"
            )
        return served[0][1]

    # ------------------------------------------------------------------
    # auditing
    # ------------------------------------------------------------------

    def audit(self) -> dict[str, Any]:
        """Health of every key, read off the store that holds its bytes.

        A key is *lost* (``keys_lost`` counts them) or *under-replicated*
        when a chunk one of its versions' manifests references is;
        *divergent* when the index and the namespace disagree — an entry
        whose blob path the namespace does not hold, or a ``params/``
        path no entry accounts for. ``repair()`` and the re-replication
        count are the store's.
        """
        self._refresh_liveness()
        fs = self._store.fs
        blocks = self.block_store.audit()
        lost_chunks = set(blocks["lost"])
        under_chunks = set(blocks["under_replicated"])
        keys_lost = 0
        under: list[str] = []
        divergent: list[str] = []
        paths: set[str] = set()
        for key, versions in self._entries.items():
            paths.update(entry.path for entry in versions)
            held = [entry.path for entry in versions if fs.exists(entry.path)]
            if len(held) != len(versions):
                divergent.append(key)
            digests = {d for path in held for d in fs.stat(path).digests}
            if digests & lost_chunks:
                keys_lost += 1
            elif digests & under_chunks:
                under.append(key)
        divergent += [p for p in fs.list_paths("params/") if p not in paths]
        return {
            "keys": len(self._entries),
            "keys_lost": keys_lost,
            "under_replicated": sorted(under),
            "divergent": sorted(divergent),
            "rereplications": blocks["rereplications"],
            "live_shards": [s.name for s in self._members if s.alive],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        live = sum(1 for s in self._members if s.alive)
        return (
            f"ShardedParameterServer(shards={len(self._members)}, live={live}, "
            f"replicas={self.replicas}, keys={len(self._entries)})"
        )
