"""The parameter server.

Semantics follow Section 6.2:

* parameters are stored under ``(key, version)``; ``put`` appends a new
  version, ``get`` returns the latest unless a version is requested;
* every version is pickled once, at ``put``, into the data store (the
  HDFS stand-in); hot versions are also kept in an LRU cache *as those
  pickled bytes* — the blob a put stored, or the chunk list a cold get
  read — and every get unpickles its own arrays from them, so a get
  copies each array's bytes once and no caller shares memory with the
  cache or with another caller;
* entries carry metadata — model name, dataset and measured
  performance.

There is one server class, in two layers:

* **one metadata plane** — one index of entries over one
  :class:`~repro.data.store.DataStore` namespace (the namenode role).
  Every version is pickled, chunked, placed and replicated exactly once,
  by the :class:`~repro.data.blockstore.BlockStore` underneath — the only
  component that places, re-replicates, repairs and audits bytes;
* **a serving tier of N >= 1 shards** — a :class:`Shard` holds nothing
  durable: an LRU cache, a circuit breaker, a liveness flag and (when
  cluster-registered) a hosting container. A ``put`` or ``get`` walks the
  key's rendezvous preference order (kept per stored key: the shards
  never change) to the first live shard whose breaker admits it, passes
  that shard's ``paramserver.shard.<name>.<push|pull>`` fault point and
  then the index's own ``paramserver.push``/``pull``,
  writes or reads the value once through the index, and uses that shard's
  cache. An injected fault feeds the breaker and fails over; killing a
  shard drops its cache and moves its keys to the next shard in their
  order — nothing is copied.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple

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
    ParameterNotFoundError,
    ParameterServerError,
)
from repro.paramserver.cache import LRUCache
from repro.tenancy import TenantRegistry, current_tenant
from repro.utils.retry import CircuitBreaker, RetryPolicy

__all__ = [
    "ParameterServer",
    "ParameterEntry",
    "Shard",
    "ShardedParameterServer",
]


@dataclass
class ParameterEntry:
    """Metadata for one stored parameter version."""

    key: str
    version: int
    model: str = ""
    dataset: str = ""
    performance: float = float("nan")
    nbytes: int = 0
    #: tenant whose ``ps_bytes`` quota this version counts against, or
    #: ``None`` when stored by a server with no registry attached.
    tenant: str | None = None

    @property
    def path(self) -> str:
        return f"params/{self.key}/v{self.version}"


def _state_size(state: dict[str, np.ndarray]) -> int:
    return int(sum(value.nbytes for value in state.values()))


def _cached_size(cached: tuple) -> int:
    """A cache entry's cost: the ``nbytes`` of the arrays it decodes to."""
    return cached[1]


class _Parts(list):
    """A pickler's output file: a list of the pieces it writes."""

    write = list.append


def _pickled(state: dict[str, np.ndarray]) -> bytes:
    """``pickle.dumps({name: value.copy()}, HIGHEST_PROTOCOL)``, byte for byte.

    An exact, C-contiguous, writable ``np.ndarray`` pickles to the same
    bytes as its copy, so it is pickled as it is; anything else (a
    subclass, a read-only or non-contiguous array, a scalar, an array
    met twice, which would pickle as a memo reference) is copied first.

    ``dumps`` grows one buffer by realloc, which faults in fresh pages
    for every megabyte checkpoint; pickling into a file hands each large
    array over as a view of its own memory, so the one ``join`` is the
    only copy.
    """
    seen: set[int] = set()
    stored = {}
    for name, value in state.items():
        if (
            type(value) is np.ndarray
            and value.flags.c_contiguous
            and value.flags.writeable
            and id(value) not in seen
        ):
            seen.add(id(value))
            stored[name] = value
        else:
            stored[name] = value.copy()
    parts = _Parts()
    pickle.Pickler(parts, pickle.HIGHEST_PROTOCOL).dump(stored)
    return b"".join(parts)


class _ChunkFile:
    """A read-only file over a list of ``bytes`` pieces, for ``pickle.Unpickler``.

    The unpickler reads opcodes and frames with ``read`` and fills each
    large ``bytearray`` it allocates with ``readinto``, which copies
    straight from the pieces: an array's bytes are copied once.
    """

    __slots__ = ("_pieces", "_index", "_offset")

    def __init__(self, pieces):
        self._pieces = pieces
        self._index = 0  # the piece the position is in
        self._offset = 0  # the position within it

    def _advance(self, piece: bytes, stop: int) -> None:
        if stop == len(piece):
            self._index += 1
            self._offset = 0
        else:
            self._offset = stop

    def readinto(self, buffer) -> int:
        out = memoryview(buffer).cast("B")
        filled, size = 0, len(out)
        pieces = self._pieces
        while filled < size and self._index < len(pieces):
            piece, start = pieces[self._index], self._offset
            stop = min(len(piece), start + size - filled)
            out[filled:filled + stop - start] = memoryview(piece)[start:stop]
            filled += stop - start
            self._advance(piece, stop)
        return filled

    def read(self, size: int) -> bytes:
        if self._index < len(self._pieces):
            piece, start = self._pieces[self._index], self._offset
            if size <= len(piece) - start:  # within one piece
                self._advance(piece, start + size)
                return piece[start:start + size]
        buffer = bytearray(size)
        return bytes(memoryview(buffer)[:self.readinto(buffer)])

    def readline(self) -> bytes:
        line = []
        while self._index < len(self._pieces):
            piece, start = self._pieces[self._index], self._offset
            end = piece.find(b"\n", start)
            stop = len(piece) if end < 0 else end + 1
            line.append(piece[start:stop])
            self._advance(piece, stop)
            if end >= 0:
                break
        return b"".join(line)


def _unpickled(pieces) -> dict[str, np.ndarray]:
    """``pickle.loads(b"".join(pieces))``, without the join.

    One piece is unpickled in place; several are read through a
    :class:`_ChunkFile`. Either way each array gets a fresh, writable
    buffer of its own, and its bytes are copied into it once.
    """
    if len(pieces) == 1:
        return pickle.loads(pieces[0])
    return pickle.Unpickler(_ChunkFile(pieces)).load()


@dataclass(kw_only=True)
class Shard(Member):
    """One serving shard: a hot cache plus liveness bookkeeping."""

    cache: LRUCache


class _ShardOp(NamedTuple):
    """One (shard, op) pair's fault-point name and bound counters."""

    point: str
    ok: telemetry.CounterChild
    error: telemetry.CounterChild
    failover: telemetry.CounterChild


class ParameterServer(HostedGroup):
    """Versioned parameter storage served through failover cache shards.

    ``cache_bytes`` is the *total* hot-cache budget, split evenly across
    the ``shards``, so scaling out does not multiply memory. ``retry`` is
    applied around each shard operation (use ``retry_on=(InjectedFault,)``
    so lookup errors still propagate at once). With ``tenants``, every
    stored version counts its ``nbytes`` against its writer's ``ps_bytes``
    quota — once, whatever the store's replication factor — until its
    key is deleted.

    Every shard sits behind ``breaker_factory(name)``, by default three
    consecutive failures open it for 30 s. On a one-shard server that
    means: an injected fault or
    :class:`~repro.exceptions.RetryExhaustedError` propagates, and after
    the third in a row ``put``/``get`` answer
    :class:`~repro.exceptions.ParameterServerError` until the recovery
    window has passed.
    """

    _JOB_KIND = JobKind.PARAMSERVER
    _ROLE = ContainerRole.PARAMETER

    def __init__(
        self,
        store: DataStore | None = None,
        shards: int = 1,
        cache_bytes: int = 256 * 1024 * 1024,
        retry: RetryPolicy | None = None,
        tenants: TenantRegistry | None = None,
        breaker_factory: Callable[[str], CircuitBreaker] | None = None,
    ):
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        self.tenants = tenants
        self.store = store if store is not None else DataStore("ps-backing")
        self._entries: dict[str, list[ParameterEntry]] = {}
        self.retry = retry
        per_shard_cache = max(1, cache_bytes // shards)
        registry = telemetry.get_registry()
        deaths = telemetry.Counter(
            "repro_paramserver_shard_deaths_total",
            "Parameter-server shard deaths observed.", registry,
        )
        self._members: list[Shard] = [
            Shard(
                name=name,
                breaker=member_breaker(breaker_factory, "paramserver", name),
                deaths=deaths.labels(shard=name),
                cache=LRUCache(
                    per_shard_cache, size_of=_cached_size, name=f"paramserver-{name}"
                ),
            )
            for name in (f"ps-{i}" for i in range(shards))
        ]
        self._by_name = {shard.name: shard for shard in self._members}
        #: key -> every shard in the key's rendezvous order, kept while
        #: the key is stored (the shards themselves never change).
        self._orders: dict[str, list[Shard]] = {}
        requests = telemetry.Counter(
            "repro_paramserver_shard_requests_total",
            "Coordinator->shard operations, by shard, op and outcome.", registry,
        )
        # looked up, not built: `repro tune --telemetry` shows it empty
        failovers = registry.counter(
            "repro_paramserver_failovers_total",
            "Shard operations redirected to another shard, by failed shard.",
        )
        #: (shard name, op) -> its fault point and bound counters.
        self._shard_ops = {
            (shard.name, op): _ShardOp(
                point=f"paramserver.shard.{shard.name}.{op}",
                ok=requests.labels(shard=shard.name, op=op, outcome="ok"),
                error=requests.labels(shard=shard.name, op=op, outcome="error"),
                failover=failovers.labels(shard=shard.name, op=op),
            )
            for shard in self._members
            for op in ("push", "pull")
        }
        self._push_count = telemetry.Counter(
            "repro_paramserver_push_total", "Parameter versions pushed (put).", registry
        ).labels()
        self._pull_count = telemetry.Counter(
            "repro_paramserver_pull_total", "Parameter fetches (get).", registry
        ).labels()
        registry.gauge(
            "repro_paramserver_shards_live",
            "Parameter-server shards currently alive.",
        ).set_function(self, lambda ps: sum(1 for s in ps._members if s.alive))
        registry.gauge(
            "repro_paramserver_stored_bytes", "Total bytes across stored versions."
        ).set_function(self, lambda ps: sum(entry.nbytes for entry in ps._all_entries()))
        registry.gauge(
            "repro_paramserver_keys", "Distinct parameter keys stored."
        ).set_function(self, lambda ps: len(ps._entries))
        if tenants is not None:
            tenants.ledger.govern("ps_bytes", self, lambda ps, tenant: sum(
                entry.nbytes for entry in ps._all_entries() if entry.tenant == tenant
            ))

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    @property
    def block_store(self) -> BlockStore:
        """The store that places and replicates every value's chunks."""
        return self.store.blocks

    @property
    def replicas(self) -> int:
        """The chunk replication factor (the store's, clamped to its nodes)."""
        return self.block_store.replicas

    @property
    def shards(self) -> list[Shard]:
        """The shard records (read-only use: tests, benchmarks, repr)."""
        return list(self._members)

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
        """The shards that can serve right now."""
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
        shard.deaths.inc()
        shard.cache.clear()

    def _member_up(self, shard: Shard, same_host: bool) -> None:
        """A shard holds nothing durable: wherever it restarts, it starts cold."""

    def repair(self) -> int:
        """Restore the chunk replication factor; return copies made."""
        return self.store.repair()

    # ------------------------------------------------------------------
    # put / get
    # ------------------------------------------------------------------

    def put(
        self,
        key: str,
        state: dict[str, np.ndarray],
        model: str = "",
        dataset: str = "",
        performance: float = float("nan"),
    ) -> ParameterEntry:
        """Store a new version of ``key`` through its first healthy shard.

        The put is the ``paramserver.put`` span, tagged with the shard
        that took it and the failover hops before it.
        """
        with telemetry.get_tracer().span("paramserver.put", key=key) as span:
            return self._serve(
                key, "push", span,
                lambda shard: self._put_once(shard.cache, key, state, model, dataset, performance),
            )

    def _put_once(
        self,
        cache: LRUCache,
        key: str,
        state: dict[str, np.ndarray],
        model: str,
        dataset: str,
        performance: float,
    ) -> ParameterEntry:
        chaos.fire("paramserver.push")
        entry = ParameterEntry(
            key=key,
            version=len(self._entries.get(key, [])) + 1,
            model=model,
            dataset=dataset,
            performance=performance,
            nbytes=_state_size(state),
        )
        if self.tenants is not None:
            entry.tenant = current_tenant()
            self.tenants.check(entry.tenant, "ps_bytes", entry.nbytes)
        blob = _pickled(state)
        # Versions live at separate paths: compare against the latest one,
        # so only the chunks this version changed are hashed.
        history = self._entries.get(key)
        self.store.put_blob(
            entry.path, blob, basis=history[-1].path if history else None
        )
        # Recorded only once the blob landed: that record is the version,
        # its quota holding and what get() will read.
        self._entries.setdefault(key, []).append(entry)
        if self.tenants is not None:
            self.tenants.ledger.admit(entry.tenant, "ps_bytes")
        cache.put(entry.path, ((blob,), entry.nbytes))
        self._push_count.inc()
        return entry

    def get(self, key: str, version: int | None = None) -> dict[str, np.ndarray]:
        """Fetch parameters (latest version unless specified), failing
        over through the key's shards as needed.

        The get is the ``paramserver.get`` span, tagged with the shard
        that served it, the failover hops before it and whether the
        shard's cache held the blob.
        """
        with telemetry.get_tracer().span("paramserver.get", key=key) as span:
            return self._serve(
                key, "pull", span, lambda shard: self._get_once(shard.cache, key, version, span)
            )

    def _serve(self, key: str, op: str, span, fn: Callable[[Shard], Any]) -> Any:
        """Run ``fn`` on the first live, breaker-admitted shard for ``key``.

        One server->shard operation is: the shard's fault point, then
        ``fn``, under the retry policy, counted per shard. ``span`` is
        tagged with the shard that served and the hops before it.
        """
        self._refresh_liveness()
        order = self._orders.get(key)
        if order is None:
            order = preference_order(key, self._members)
            if key in self._entries:
                self._orders[key] = order
        shard_ops = self._shard_ops

        def attempt(shard: Shard) -> Any:
            bound = shard_ops[shard.name, op]

            def once():
                chaos.fire(bound.point)
                return fn(shard)

            try:
                if self.retry is not None:
                    result = self.retry.call(once, name=f"paramserver.{op}")
                else:
                    result = once()
            except Exception:
                bound.error.inc()
                raise
            bound.ok.inc()
            return result

        hops = 0

        def hop(shard: Shard) -> None:
            nonlocal hops
            hops += 1
            shard_ops[shard.name, op].failover.inc()

        served = failover((s for s in order if s.alive), attempt, hop)
        if not served:
            raise ParameterServerError(
                f"no live parameter-server shard can serve {key!r}"
            )
        span.tag(shard=served[0][0].name, failovers=hops)
        return served[0][1]

    def _get_once(
        self, cache: LRUCache, key: str, version: int | None, span
    ) -> dict[str, np.ndarray]:
        chaos.fire("paramserver.pull")
        self._pull_count.inc()
        entry = self.get_entry(key, version)
        cached = cache.get(entry.path)
        span.tag(cache_hit=cached is not None)
        if cached is not None:
            return _unpickled(cached[0])
        chunks = self.store.read_chunks(entry.path)
        state = _unpickled(chunks)
        cache.put(entry.path, (chunks, entry.nbytes))
        return state

    def get_entry(self, key: str, version: int | None = None) -> ParameterEntry:
        """Metadata of a stored version (latest unless specified)."""
        versions = self._entries.get(key)
        if not versions:
            raise ParameterNotFoundError(key)
        if version is None:
            return versions[-1]
        if not 1 <= version <= len(versions):
            raise ParameterNotFoundError(f"{key}@v{version}")
        return versions[version - 1]

    def _all_entries(self) -> Iterator[ParameterEntry]:
        for versions in self._entries.values():
            yield from versions

    def has(self, key: str) -> bool:
        """Whether any version of ``key`` is stored."""
        return key in self._entries

    def keys(self) -> list[str]:
        """All stored keys, sorted."""
        return sorted(self._entries)

    def versions(self, key: str) -> int:
        """How many versions of ``key`` exist (0 when absent)."""
        return len(self._entries.get(key, []))

    def delete(self, key: str) -> None:
        """Drop every version of ``key`` from every cache and the backing store.

        A re-created key restarts at version 1 and reuses its paths, so
        any cache that ever served the old bytes must forget them.
        """
        versions = self._entries.pop(key, None)
        if versions is None:
            raise ParameterNotFoundError(key)
        self._orders.pop(key, None)
        paths = [entry.path for entry in versions]
        for shard in self._members:
            for path in paths:
                shard.cache.invalidate(path)
        # every version at once: the store marks from its readers once
        self.store.delete_blobs([path for path in paths if self.store.has_blob(path)])

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
        fs = self.store.fs
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


def ShardedParameterServer(
    shards: int = 4,
    replicas: int = 2,
    cache_bytes: int = 256 * 1024 * 1024,
    retry: RetryPolicy | None = None,
    store_factory: Callable[[str], DataStore] | None = None,
    breaker_factory: Callable[[str], CircuitBreaker] | None = None,
    block_store: BlockStore | None = None,
    tenants: TenantRegistry | None = None,
) -> ParameterServer:
    """A :class:`ParameterServer` built from the pre-merge keywords.

    The index's store is ``store_factory("ps")`` when given, else a
    :class:`DataStore` over ``block_store`` or a fresh
    ``BlockStore(nodes=shards, replicas=replicas)``.
    """
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
    return ParameterServer(
        store=store, shards=shards, cache_bytes=cache_bytes, retry=retry,
        tenants=tenants, breaker_factory=breaker_factory,
    )
