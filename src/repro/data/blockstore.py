"""Chunked, content-addressable, replicated block storage.

The datanode half of the HDFS-shaped store (the namenode half —
paths, manifests, versions — lives in :mod:`repro.data.fs`). Files are
split into fixed-size chunks addressed by their sha256 digest, so

* **dedup is structural**: two files (or two versions of one file)
  that share bytes share chunks — the near-duplicate checkpoints a
  tuning study writes collapse to the few chunks that actually
  changed;
* **replication is per chunk, and only here**: every chunk is placed
  on ``replicas`` distinct :class:`DataNode`\\ s chosen by rendezvous
  hashing (preferring distinct cluster nodes when the store is
  cluster-registered), so one machine failure cannot destroy any
  chunk. Nothing above the store copies bytes a second time;
* **failure handling**: reads fail over through the chunk's holders
  behind per-node circuit breakers, a dead node's chunks are
  re-replicated from the surviving copies, and ``repair()``/``audit()``
  heal and report replication health (the membership mechanics —
  preference order, failover loop, cluster hosting — are
  :mod:`repro.cluster.membership`'s, shared with the parameter-server
  shards);
* **trash reconciliation follows HMDFS**: a datanode death does not
  destroy its disk. While it is down, deletions that would have
  reached it are queued in a per-node *trash* set; when the node
  rejoins, trashed and over-replicated chunks are removed from its
  disk and still-referenced survivors are re-admitted to the
  directory (which can resurrect chunks whose every live copy died);
* **the read order is kept per holder set**: a read tries a chunk's
  holders in their rendezvous order, which the store keeps per chunk,
  as a namenode hands out a block's locations from its block map, from
  the first read until that chunk's holder list changes;
* **references are read, not counted**: each namespace registers a
  reader (:meth:`BlockStore.add_reader`) of the digests it holds, and
  :meth:`BlockStore.collect` drops candidates no reader reaches — at a
  delete or a failed write or put only, so a put pays nothing for it.
  The store holds each namespace weakly (:mod:`repro.utils.owners`): a
  dropped namespace references no chunk.

Chaos integration: every datanode operation passes through
``data.store.node.<name>.<put|get>`` fault points (plus the aggregate
``data.store.put``/``data.store.get`` points), so plans can kill or
slow a single datanode; injected faults feed the node's
:class:`~repro.utils.retry.CircuitBreaker` and trigger failover or
re-placement exactly as real disk errors would. Each node's point
names and request counters are bound once, where the store is built.

**Hashing only what changed.** A put may name a *basis*: the digest
list of the version it replaces. Chunk *i* whose bytes equal the stored
bytes of ``basis[i]`` (a live copy, same length, compared with
``bytes.startswith`` — a memcmp) takes ``basis[i]`` as its digest;
every other chunk is hashed. Stored bytes always hash to their address,
so the digest is the same either way and so is everything after it. The
comparison is the store reading its own bookkeeping, like the directory
lookup beside it, not a datanode transfer: it fires no fault point,
feeds no breaker and moves no counter, and a basis that is missing,
dead, lost or of another length just falls back to hashing.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

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
from repro.exceptions import ChunkLostError, ConfigurationError, StorageError
from repro.utils.owners import WeakReader, live

__all__ = ["BlockStore", "DataNode", "chunk_digest", "DEFAULT_CHUNK_SIZE"]

#: default chunk size in bytes. Small enough that a ~70KB checkpoint
#: spans several chunks (so partial updates dedup), large enough that
#: digest overhead stays negligible.
DEFAULT_CHUNK_SIZE = 64 * 1024


def chunk_digest(data: bytes) -> str:
    """Content address of one chunk: its sha256 hex digest."""
    return hashlib.sha256(data).hexdigest()


@dataclass
class DataNode(Member):
    """One storage daemon: a chunk disk plus liveness bookkeeping.

    ``chunks`` is the node's disk — it survives :meth:`BlockStore.kill_node`
    (process death leaves the disk behind) and is either reconciled on
    rejoin or discarded when the node's container restarts on a
    different machine (``node_name`` tracks that disk locality).
    """

    #: digest -> chunk bytes (the disk).
    chunks: dict[str, bytes] = field(default_factory=dict)


class _NodeOp(NamedTuple):
    """One (datanode, op) pair's fault-point names and bound counters."""

    store_point: str
    node_point: str
    ok: telemetry.CounterChild
    error: telemetry.CounterChild
    failover: telemetry.CounterChild


class BlockStore(HostedGroup):
    """Fixed-size chunks, sha256 addressing, R-way replica placement.

    The store is the *chunk* layer only: it knows digests, holders and
    sizes, never paths (see :class:`repro.data.fs.FileNamespace` for the
    namenode role). ``replicas`` is clamped to the node count. References
    are the namespaces': each registers a reader with :meth:`add_reader`,
    :meth:`put` stores bytes, and :meth:`collect` deletes a chunk's bytes
    everywhere once no reader reaches it.
    """

    _JOB_KIND = JobKind.DATASTORE
    _ROLE = ContainerRole.DATA

    def __init__(
        self,
        nodes: int = 3,
        replicas: int = 2,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        breaker_factory=None,
    ):
        if nodes < 1:
            raise ConfigurationError(f"nodes must be >= 1, got {nodes}")
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        self.replicas = min(replicas, nodes)
        self.chunk_size = chunk_size
        registry = telemetry.get_registry()
        (deaths, lost, recopied, reconciled, self._restored) = (
            telemetry.Counter(name, help, registry) for name, help in (
                ("repro_blockstore_node_deaths_total", "Datanode deaths observed."),
                ("repro_blockstore_chunks_lost_total",
                 "Chunks whose every live copy died before re-replication."),
                ("repro_blockstore_rereplications_total",
                 "Chunks re-copied to restore the replication factor."),
                ("repro_blockstore_trash_reconciled_total",
                 "Stale chunks deleted from a rejoining datanode's disk."),
                ("repro_blockstore_chunks_restored_total",
                 "Lost chunks resurrected from a rejoining disk."),
            )
        )
        self._nodes: list[DataNode] = [
            DataNode(name, member_breaker(breaker_factory, "blockstore", name),
                     deaths.labels(node=name))
            for name in (f"dn-{i}" for i in range(nodes))
        ]
        self._members = self._nodes  # HostedGroup's name for them
        self._by_name = {node.name: node for node in self._nodes}
        #: digest -> live holder names (the namenode's block map).
        self._directory: dict[str, list[str]] = {}
        #: digest -> its holders in rendezvous read order, kept from the
        #: first read until the holder list changes.
        self._read_orders: dict[str, list[DataNode]] = {}
        #: digest -> chunk length in bytes.
        self._sizes: dict[str, int] = {}
        #: each namespace, held weakly, with its reader of the digest
        #: tuples it holds.
        self._readers: list[WeakReader] = []
        #: dead node -> digests to delete from its disk when it rejoins.
        self._trash: dict[str, set[str]] = {}
        #: digests whose every live copy is gone (until rejoin restores them).
        self._lost: set[str] = set()
        requests = telemetry.Counter(
            "repro_blockstore_requests_total",
            "Store->datanode chunk operations, by node, op and outcome.",
            registry,
        )
        failovers = telemetry.Counter(
            "repro_blockstore_failovers_total",
            "Chunk operations redirected to another holder, by failed node.",
            registry,
        )
        #: (node name, op) -> its fault points and bound counters.
        self._node_ops = {
            (node.name, op): _NodeOp(
                store_point=f"data.store.{op}",
                node_point=f"data.store.node.{node.name}.{op}",
                ok=requests.labels(node=node.name, op=op, outcome="ok"),
                error=requests.labels(node=node.name, op=op, outcome="error"),
                failover=failovers.labels(node=node.name, op=op),
            )
            for node in self._nodes
            for op in ("put", "get")
        }
        self._dedup_hits = telemetry.Counter(
            "repro_blockstore_dedup_hits_total",
            "Chunk puts answered by an already-stored identical chunk.",
            registry,
        ).labels()
        self._chunk_writes = telemetry.Counter(
            "repro_blockstore_chunk_writes_total", "Distinct chunks written.", registry
        ).labels()
        self._chunks_lost = lost.labels()
        self._recopied = {n.name: recopied.labels(node=n.name) for n in self._nodes}
        self._reconciled = {n.name: reconciled.labels(node=n.name) for n in self._nodes}
        registry.gauge(
            "repro_blockstore_nodes_live", "Datanodes currently alive."
        ).set_function(self, lambda store: sum(1 for n in store._nodes if n.alive))
        registry.gauge(
            "repro_blockstore_chunks", "Distinct chunks currently stored."
        ).set_function(self, lambda store: len(store._directory))
        stored = registry.gauge(
            "repro_blockstore_bytes", "Stored bytes, by accounting kind."
        )
        stored.set_function(self, lambda store: sum(store._sizes.values()), kind="unique")
        stored.set_function(
            self, lambda store: store._logical_bytes(store._reference_counts()), kind="logical"
        )

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> list[DataNode]:
        """The datanode records (read-only use: tests, benchmarks, repr)."""
        return list(self._nodes)

    def node(self, name: str) -> DataNode:
        """Look a datanode up by name."""
        if name not in self._by_name:
            raise ConfigurationError(f"unknown datanode {name!r}")
        return self._by_name[name]

    def _targets(self, digest: str) -> list[DataNode]:
        """First ``replicas`` live datanodes in preference order.

        Prefers datanodes on distinct cluster nodes (rack-awareness) so
        one machine failure cannot take every copy; falls back to
        co-located datanodes only when there aren't enough hosts.
        """
        order = [n for n in preference_order(digest, self._nodes) if n.alive]
        targets: list[DataNode] = []
        seen_hosts: set[str] = set()
        for node in order:
            host = node.node_name
            if host is not None and host in seen_hosts:
                continue
            targets.append(node)
            if host is not None:
                seen_hosts.add(host)
            if len(targets) == self.replicas:
                return targets
        for node in order:
            if node not in targets:
                targets.append(node)
                if len(targets) == self.replicas:
                    break
        return targets

    def _needed(self) -> int:
        """The replication factor achievable right now."""
        return min(self.replicas, sum(1 for n in self._nodes if n.alive))

    # ------------------------------------------------------------------
    # chunk I/O
    # ------------------------------------------------------------------

    def put(self, data: bytes, on_chunk=None, basis=()) -> list[str]:
        """Chunk ``data`` and store every chunk; return its digest list.

        Identical chunks (within this call or against anything already
        stored) are stored once and counted as dedup hits. ``basis`` is
        the digest list of the version ``data`` replaces: chunk *i* that
        equals a live copy of ``basis[i]`` byte for byte (same length)
        takes that digest without being hashed, any other chunk is
        hashed, so the result is the same with or without a basis. The
        comparison reads the store's own copy and fires no fault point
        (see the module docstring). ``on_chunk`` — called as
        ``on_chunk(index, digest)`` after each chunk lands — lets chaos
        scenarios kill a node *mid-write* deterministically.
        The caller's reader must reach the digests once this returns (a
        namespace registers the write as in flight). If the put fails
        part-way, the chunks it stored are collected again.
        """
        self._refresh_liveness()
        size, length = self.chunk_size, len(data)
        view = memoryview(data)
        digests: list[str] = []
        stored: list[str] = []
        hits = 0
        try:
            for index, start in enumerate(range(0, length, size)):
                end = min(start + size, length)
                if index < len(basis) and self._holds(basis[index], data, start, end):
                    digest = basis[index]
                else:
                    digest = chunk_digest(view[start:end])
                if digest in self._directory and digest not in self._lost:
                    hits += 1
                else:
                    self._store_chunk(digest, data[start:end])
                    stored.append(digest)
                digests.append(digest)
                if on_chunk is not None:
                    on_chunk(index, digest)
        except BaseException:
            self.collect(stored)
            raise
        finally:
            if hits:
                self._dedup_hits.inc(hits)
        return digests

    def _holds(self, digest: str, data: bytes, start: int, end: int) -> bool:
        """Whether a live copy of ``digest`` is exactly ``data[start:end]``."""
        holders = self._directory.get(digest)
        if not holders:  # unknown, or lost: no live copy to compare with
            return False
        stored = self._by_name[holders[0]].chunks[digest]
        return len(stored) == end - start and data.startswith(stored, start)

    def _store_chunk(self, digest: str, data: bytes) -> None:
        """Place one chunk on ``replicas`` datanodes (at least one)."""

        def write(node: DataNode) -> None:
            self._node_call(node, "put")
            node.chunks[digest] = data

        targets = self._targets(digest)
        placed = [
            node.name
            for node, _ in failover(
                targets, write, lambda n: self._count_failover(n, "put"),
                want=len(targets),
            )
        ]
        if not placed:
            raise StorageError(f"no live datanode accepted chunk {digest[:12]}…")
        self._directory[digest] = placed
        self._read_orders.pop(digest, None)
        self._sizes[digest] = len(data)
        self._lost.discard(digest)
        self._chunk_writes.inc()

    def get_chunk(self, digest: str) -> bytes:
        """Fetch one chunk, failing over through its holders as needed."""
        self._refresh_liveness()

        def read(node: DataNode) -> bytes:
            self._node_call(node, "get")
            return node.chunks[digest]

        served = failover(
            [node for node in self._read_order(digest) if node.alive],
            read,
            lambda n: self._count_failover(n, "get"),
        )
        if not served:
            raise ChunkLostError(
                f"chunk {digest[:12]}… has no live replica "
                f"(holders: {', '.join(self._directory[digest]) or 'none'})"
            )
        return served[0][1]

    def _read_order(self, digest: str) -> list[DataNode]:
        """``digest``'s holders in rendezvous order: computed at the first
        read, kept until the holder list changes."""
        order = self._read_orders.get(digest)
        if order is None:
            holders = self._directory.get(digest)
            if holders is None:
                raise ChunkLostError(f"unknown chunk {digest[:12]}…")
            order = self._read_orders[digest] = preference_order(
                digest, [self._by_name[name] for name in holders]
            )
        return order

    def has_chunk(self, digest: str) -> bool:
        """Whether the chunk has at least one live copy."""
        holders = self._directory.get(digest)
        if not holders:
            return False
        return any(self._by_name[name].alive for name in holders)

    def ensure(self, digests: list[str], data: bytes) -> int:
        """Re-store any chunk of ``data`` that lost every live copy.

        The writer still holds the bytes, so a node death *during* a
        write costs nothing: commit calls this before publishing the
        manifest, closing the mid-write window. Returns the number of
        chunks re-stored.
        """
        self._refresh_liveness()
        size = self.chunk_size
        if -(-len(data) // size) != len(digests):
            raise StorageError("digest list does not match the data being ensured")
        healed = 0
        for index, digest in enumerate(digests):
            if not self.has_chunk(digest):
                self._store_chunk(digest, data[index * size : (index + 1) * size])
                healed += 1
        return healed

    def _node_call(self, node: DataNode, op: str) -> None:
        """One store->datanode operation: fault points plus telemetry."""
        bound = self._node_ops[node.name, op]
        try:
            chaos.fire(bound.store_point)
            chaos.fire(bound.node_point)
        except Exception:
            bound.error.inc()
            raise
        bound.ok.inc()

    def served(self, op: str) -> dict[str, int]:
        """Store->datanode ``op`` (``"put"`` or ``"get"``) calls that passed
        their fault points so far, by datanode: the difference of two
        readings names the nodes an operation used."""
        return {node.name: self._node_ops[node.name, op].ok.count for node in self._nodes}

    def _count_failover(self, node: DataNode, op: str) -> None:
        self._node_ops[node.name, op].failover.inc()

    # ------------------------------------------------------------------
    # references (read off the namespaces)
    # ------------------------------------------------------------------

    def add_reader(self, owner, references) -> None:
        """Count the digest tuples ``references(owner)`` yields as holding
        their chunks while ``owner`` lives (a namespace calls this once
        where it is built)."""
        self._readers.append(WeakReader(owner, references))

    def _references(self):
        """Every digest tuple the live readers yield right now, one per reference."""
        return chain.from_iterable(read(owner) for owner, read in live(self._readers))

    def _reference_counts(self) -> Counter:
        return Counter(chain.from_iterable(self._references()))

    def _logical_bytes(self, counts: Counter) -> int:
        return sum(self._sizes[digest] * counts[digest] for digest in self._directory)

    def collect(self, candidates) -> None:
        """Delete those of ``candidates`` that no reader reaches.

        Deleting from a *dead* node's disk is impossible, so those
        deletions are queued in the node's trash set and applied when
        it rejoins (the HMDFS trash pass).
        """
        reached = set().union(*self._references())
        for digest in dict.fromkeys(candidates):
            if digest in self._directory and digest not in reached:
                self._drop(digest)

    def _drop(self, digest: str) -> None:
        """Forget a chunk and delete (or trash) every copy of it."""
        for node in self._nodes:
            if digest not in node.chunks:
                continue
            if node.alive:
                del node.chunks[digest]
            else:
                self._trash.setdefault(node.name, set()).add(digest)
        self._directory.pop(digest, None)
        self._read_orders.pop(digest, None)
        self._sizes.pop(digest, None)
        self._lost.discard(digest)

    # ------------------------------------------------------------------
    # liveness, death, rejoin
    # ------------------------------------------------------------------

    def kill_node(self, name: str) -> None:
        """Kill a datanode (its disk survives for a later rejoin)."""
        node = self.node(name)
        if node.alive:
            self._member_down(node)

    def _member_down(self, node: DataNode) -> None:
        """Mark a node dead and restore replication from surviving copies."""
        node.alive = False
        node.deaths.inc()
        self._trash.setdefault(node.name, set())
        for digest in sorted(self._directory):
            holders = self._directory[digest]
            if node.name not in holders:
                continue
            holders.remove(node.name)
            self._read_orders.pop(digest, None)
            if holders:
                self._restore_replication(digest)
            else:
                self._lost.add(digest)
                self._chunks_lost.inc()

    def _restore_replication(self, digest: str) -> int:
        """Re-copy ``digest`` until it is back at ``replicas`` live copies."""
        holders = self._directory.get(digest)
        if not holders:
            return 0
        source = self._by_name[holders[0]]
        copied = 0
        for target in self._targets(digest):
            if len(holders) >= self._needed():
                break
            if target.name in holders:
                continue
            target.chunks[digest] = source.chunks[digest]
            holders.append(target.name)
            copied += 1
            self._recopied[target.name].inc()
        if copied:
            self._read_orders.pop(digest, None)
        return copied

    def rejoin_node(self, name: str) -> int:
        """Bring a dead datanode back with its disk and reconcile it.

        The HMDFS trash pass: chunks deleted (or re-replicated past the
        factor) while the node was down are removed from its disk;
        still-referenced survivors are re-admitted to the directory —
        which resurrects any chunk whose every live copy had died.
        Returns the number of chunks deleted from the rejoining disk.
        """
        node = self.node(name)
        if node.alive:
            return 0
        before = self._reconciled[name].count
        node.alive = True
        self._member_up(node, same_host=True)
        return self._reconciled[name].count - before

    def _member_up(self, node: DataNode, same_host: bool) -> None:
        if same_host:
            # The machine came back: the disk survived — trash pass.
            self._reconcile(node)
        else:
            # Restarted elsewhere: the old disk is orphaned — start
            # empty and re-sync from the surviving replicas.
            node.chunks.clear()
            self._trash.pop(node.name, None)
            self.repair()

    def _reconcile(self, node: DataNode) -> None:
        """Apply the trash pass to a rejoining node's preserved disk."""
        trash = self._trash.pop(node.name, set())
        for digest in sorted(node.chunks):
            holders = self._directory.get(digest)
            stale = (
                digest in trash
                or holders is None
                or (node.name not in holders and len(holders) >= self._needed())
            )
            if stale:
                del node.chunks[digest]
                self._reconciled[node.name].inc()
                continue
            if node.name not in holders:
                holders.append(node.name)
                self._read_orders.pop(digest, None)
                if digest in self._lost:
                    self._lost.discard(digest)
                    self._restored.inc(node=node.name)

    def repair(self) -> int:
        """Re-replicate every under-replicated chunk; return copies made.

        Writes that ran degraded (an open breaker, an injected fault, a
        mid-write death) leave chunks below the replication factor.
        Operators — and the chaos scenarios — call this once the fault
        clears to heal everything immediately.
        """
        self._refresh_liveness()
        return sum(
            self._restore_replication(digest)
            for digest in sorted(self._directory)
            if len(self._directory[digest]) < self._needed()
        )

    # ------------------------------------------------------------------
    # auditing
    # ------------------------------------------------------------------

    @property
    def trash_reconciled(self) -> int:
        """Stale chunks ever deleted from a rejoining datanode's disk."""
        return sum(child.count for child in self._reconciled.values())

    def audit(self) -> dict:
        """Replication health: lost, under-replicated chunks, dedup ratio.

        ``logical_bytes`` counts every reference the readers yield (a
        manifest, or a write in flight), ``unique_bytes`` each stored
        chunk once, ``replicated_bytes`` every live copy — so
        ``dedup_ratio = logical / unique`` measures what content
        addressing saved. ``unreferenced`` lists stored chunks no reader
        reaches: a leak, empty by construction. The store-kill chaos
        scenario asserts ``lost`` and ``under_replicated`` are empty
        after repair.
        """
        self._refresh_liveness()
        needed = self._needed()
        under = sorted(
            digest
            for digest, holders in self._directory.items()
            if 0 < len(holders) < needed
        )
        counts = self._reference_counts()
        unreferenced = sorted(digest for digest in self._directory if not counts[digest])
        unique = sum(self._sizes.values())
        logical = self._logical_bytes(counts)
        replicated = sum(
            self._sizes[digest] * len(holders)
            for digest, holders in self._directory.items()
        )
        return {
            "chunks": len(self._directory),
            "lost": sorted(self._lost),
            "under_replicated": under,
            "unreferenced": unreferenced,
            "unique_bytes": unique,
            "logical_bytes": logical,
            "replicated_bytes": replicated,
            "dedup_ratio": round(logical / unique, 4) if unique else 1.0,
            "dedup_hits": self._dedup_hits.count,
            "rereplications": sum(child.count for child in self._recopied.values()),
            "trash_reconciled": self.trash_reconciled,
            "trash_pending": {
                name: len(digests)
                for name, digests in sorted(self._trash.items())
                if digests
            },
            "live_nodes": [n.name for n in self._nodes if n.alive],
        }
