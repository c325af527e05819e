"""Tests for the chunked, content-addressable, replicated block store.

Covers the chunk layer (:mod:`repro.data.blockstore`), the namenode
layer (:mod:`repro.data.fs`), their cluster integration, and the
seeded store-kill chaos scenario. The round-trip tests are
property-based in the seeded-random-size style: byte streams of every
length class around the chunk boundary (0, partial, exact, multiple,
multiple±1) must survive write/read/overwrite/delete bit-identically
at every replication factor.
"""

import random

import numpy as np
import pytest

from repro import telemetry
from repro.data import BlockStore, DataStore, FileNamespace, chunk_digest
from repro.exceptions import (
    ChunkLostError,
    ConfigurationError,
    NotFoundError,
    StorageError,
)

CHUNK = 256


class _Owner(list):
    """A list that can be held weakly, as every registered owner is."""


def _random_bytes(rng: random.Random, length: int) -> bytes:
    return rng.randbytes(length)


def _audit(store: BlockStore) -> dict:
    """``store.audit()``, once the store's gauges have been checked against it.

    The gauges are readers over the store's own state, so this holds
    after any step; a gauge kept current by hand is what it would catch.
    """
    audit = store.audit()
    gauge = telemetry.get_registry().gauge
    assert gauge("repro_blockstore_nodes_live").value() == len(audit["live_nodes"])
    assert gauge("repro_blockstore_chunks").value() == audit["chunks"]
    assert gauge("repro_blockstore_bytes").value(kind="unique") == audit["unique_bytes"]
    assert gauge("repro_blockstore_bytes").value(kind="logical") == audit["logical_bytes"]
    return audit


def _lengths(rng: random.Random) -> list[int]:
    """Every length class around the chunk boundary, plus random fill."""
    fixed = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 3 * CHUNK - 1,
             4 * CHUNK, 4 * CHUNK + 1]
    return fixed + [rng.randrange(0, 4 * CHUNK + 2) for _ in range(8)]


class TestChunking:
    def test_split_sizes(self):
        store = BlockStore(nodes=1, replicas=1, chunk_size=256)
        digests = store.put(b"x" * 1000)
        assert [store._sizes[d] for d in digests] == [256, 256, 256, 232]
        assert digests[-1] == chunk_digest(b"x" * 232)

    def test_split_empty_is_no_chunks(self):
        store = BlockStore(nodes=1, replicas=1, chunk_size=256)
        assert store.put(b"") == []
        assert store.put(b"", basis=store.put(b"x" * 300)) == []

    def test_digest_is_content_address(self):
        assert chunk_digest(b"abc") == chunk_digest(b"abc")
        assert chunk_digest(b"abc") != chunk_digest(b"abd")

    def test_identical_chunks_stored_once(self):
        store = BlockStore(nodes=2, replicas=1, chunk_size=CHUNK)
        store.put(b"A" * CHUNK * 3)
        assert store.audit()["chunks"] == 1
        assert store.audit()["dedup_hits"] == 2

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            BlockStore(nodes=0)
        with pytest.raises(ConfigurationError):
            BlockStore(replicas=0)
        with pytest.raises(ConfigurationError):
            BlockStore(chunk_size=0)

    def test_replicas_clamped_to_nodes(self):
        assert BlockStore(nodes=2, replicas=5).replicas == 2


def _assert_addresses(store: BlockStore) -> None:
    """Every stored copy, on every disk, hashes to its own address."""
    for node in store.nodes:
        for digest, chunk in node.chunks.items():
            assert chunk_digest(chunk) == digest, (node.name, digest[:12])


def _history(rng: random.Random) -> list[bytes]:
    """Successive versions of one blob: each resizes the last (to every
    length class, longer and shorter) and edits up to three bytes."""
    versions, data = [], b""
    lengths = _lengths(rng) + [3 * CHUNK, 3 * CHUNK, 0, 2 * CHUNK + 1, 2 * CHUNK + 1]
    rng.shuffle(lengths)
    for length in lengths:
        data = bytearray(data[:length] + rng.randbytes(max(0, length - len(data))))
        for _ in range(rng.randrange(3) if length else 0):
            data[rng.randrange(length)] ^= 0xFF
        data = bytes(data)
        versions.append(data)
    return versions


class TestPutAgainstABasis:
    """``put(data, basis=digests)`` hashes only the chunks that differ from
    the version it replaces, and gives exactly what ``put(data)`` gives."""

    def _replay(self, versions, with_basis):
        registry = telemetry.MetricsRegistry()
        previous = telemetry.set_registry(registry)
        try:
            store = BlockStore(nodes=3, replicas=2, chunk_size=CHUNK)
            puts, basis = _Owner(), ()
            store.add_reader(puts, list.__iter__)
            for data in versions:
                digests = store.put(data, basis=basis if with_basis else ())
                puts.append(digests)
                basis = digests
            return puts, store, registry.snapshot()
        finally:
            telemetry.set_registry(previous)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_basis_changes_nothing_but_the_hashing(self, seed):
        versions = _history(random.Random(400 + seed))
        puts, store, snapshot = self._replay(versions, with_basis=True)
        want_puts, want, want_snapshot = self._replay(versions, with_basis=False)
        assert puts == want_puts
        assert store._directory == want._directory
        assert store.audit() == want.audit()
        assert store._sizes == want._sizes
        assert store.audit()["dedup_hits"] == want.audit()["dedup_hits"] > 0
        assert snapshot == want_snapshot
        for data, digests in zip(versions, puts):
            assert b"".join(store.get_chunk(d) for d in digests) == data
        _assert_addresses(store)

    def test_an_edit_hashes_only_the_chunks_it_touches(self, monkeypatch):
        from repro.data import blockstore

        size = 64 * 1024
        store = BlockStore(nodes=3, replicas=2, chunk_size=size)
        fs = FileNamespace(store)
        rng = random.Random(29)
        blob = bytearray(rng.randbytes(1 << 20))
        fs.write("ckpt", bytes(blob))
        hashed = []
        digest_of = blockstore.chunk_digest

        def spy(chunk):
            hashed.append(bytes(chunk))
            return digest_of(chunk)

        monkeypatch.setattr(blockstore, "chunk_digest", spy)
        # inside one chunk, across a boundary, at the very end
        for offset in (3 * size + 100, 5 * size - 512, len(blob) - 1024):
            blob[offset:offset + 1024] = rng.randbytes(1024)
            fs.write("ckpt", bytes(blob))
            touched = sorted({offset // size, (offset + 1023) // size})
            assert hashed == [bytes(blob[i * size:(i + 1) * size]) for i in touched]
            hashed.clear()
        assert fs.stat("ckpt").digests == tuple(
            digest_of(bytes(blob[i:i + size])) for i in range(0, len(blob), size)
        )
        assert fs.read("ckpt") == blob
        _assert_addresses(store)

    def test_an_unusable_basis_falls_back_to_hashing(self):
        rng = random.Random(31)
        data = _random_bytes(rng, 3 * CHUNK + 10)

        def check(store, basis, blob=data):
            digests = store.put(blob, basis=basis)
            assert digests == [chunk_digest(blob[i:i + CHUNK])
                               for i in range(0, len(blob), CHUNK)]
            assert b"".join(store.get_chunk(d) for d in digests) == blob
            _assert_addresses(store)

        # deleted: no manifest references the basis any more
        fs = FileNamespace(BlockStore(nodes=3, replicas=2, chunk_size=CHUNK))
        basis = list(fs.write("old", data).digests)
        fs.delete("old")
        check(fs.store, basis)
        # every holder killed: the chunk is lost, its bytes on a dead disk
        store = BlockStore(nodes=3, replicas=1, chunk_size=CHUNK)
        basis = store.put(data[:CHUNK])
        holder = store.node(store._directory[basis[0]][0])
        store.kill_node(holder.name)
        assert basis[0] in store._lost and basis[0] in holder.chunks
        check(store, basis)
        # longer than data: the last basis chunk is full, data's is short;
        # shorter: data's chunk starts with the basis's short last chunk
        store = BlockStore(nodes=3, replicas=2, chunk_size=CHUNK)
        longer = data + _random_bytes(rng, CHUNK - 10)
        check(store, store.put(longer))
        check(store, store.put(data), blob=longer)

    def test_the_comparison_fires_no_fault_point(self):
        from repro import chaos
        from repro.chaos import FaultKind, FaultPlan, FaultRule

        store = BlockStore(nodes=3, replicas=2, chunk_size=CHUNK)
        data = bytearray(_random_bytes(random.Random(37), 8 * CHUNK))
        basis = store.put(bytes(data))
        data[5 * CHUNK] ^= 0xFF
        plan = FaultPlan([FaultRule("data.store.get", FaultKind.EXCEPTION)], seed=0)
        with chaos.active(plan):
            digests = store.put(bytes(data), basis=basis)
        assert digests == basis[:5] + [chunk_digest(data[5 * CHUNK:6 * CHUNK])] + basis[6:]
        assert plan.invocations("data.store.get") == 0
        assert not [e for e in plan.trace() if "get" in e["point"]]
        requests = telemetry.get_registry().counter("repro_blockstore_requests_total")
        assert not [key for key in requests.label_keys() if ("op", "get") in key]
        _assert_addresses(store)

    def test_a_kill_of_the_basis_holder_mid_write_still_commits(self):
        store = BlockStore(nodes=2, replicas=1, chunk_size=CHUNK)
        fs = FileNamespace(store)
        old = _random_bytes(random.Random(41), 8 * CHUNK)
        basis = fs.write("p", old).digests
        assert any("dn-0" in store._directory[d] for d in basis[3:])
        new = bytearray(old)
        new[CHUNK] ^= 0xFF

        def kill(index, digest):
            if index == 2:
                store.kill_node("dn-0")

        manifest = fs.write("p", bytes(new), on_chunk=kill)
        assert fs.read("p") == new
        assert manifest.digests == tuple(
            chunk_digest(new[i:i + CHUNK]) for i in range(0, len(new), CHUNK)
        )
        assert not set(manifest.digests) & set(store.audit()["lost"])
        _assert_addresses(store)


class TestRoundTripProperties:
    """Seeded random-size round trips at every replication factor."""

    @pytest.mark.parametrize("replicas", [1, 2, 3])
    def test_write_read_bit_identical(self, replicas):
        rng = random.Random(100 + replicas)
        store = BlockStore(nodes=3, replicas=replicas, chunk_size=CHUNK)
        fs = FileNamespace(store)
        blobs = {f"p/{i}": _random_bytes(rng, n)
                 for i, n in enumerate(_lengths(rng))}
        for path, data in blobs.items():
            fs.write(path, data)
        for path, data in blobs.items():
            assert fs.read(path) == data

    @pytest.mark.parametrize("replicas", [1, 2, 3])
    def test_overwrite_then_read_all_versions(self, replicas):
        rng = random.Random(200 + replicas)
        store = BlockStore(nodes=3, replicas=replicas, chunk_size=CHUNK)
        fs = FileNamespace(store)
        history = [_random_bytes(rng, n) for n in _lengths(rng)]
        for data in history:
            fs.write("path", data)
        assert fs.read("path") == history[-1]
        for version, data in enumerate(history, start=1):
            assert fs.read("path", version=version) == data

    @pytest.mark.parametrize("replicas", [1, 2, 3])
    def test_delete_frees_every_chunk(self, replicas):
        rng = random.Random(300 + replicas)
        store = BlockStore(nodes=3, replicas=replicas, chunk_size=CHUNK)
        fs = FileNamespace(store)
        for i, n in enumerate(_lengths(rng)):
            fs.write(f"p/{i}", _random_bytes(rng, n))
        for path in fs.list_paths():
            fs.delete(path)
        audit = store.audit()
        assert audit["chunks"] == 0
        assert audit["unique_bytes"] == 0
        assert all(not node.chunks for node in store.nodes)

    def test_chunk_replica_counts_match_factor(self):
        rng = random.Random(7)
        store = BlockStore(nodes=4, replicas=2, chunk_size=CHUNK)
        fs = FileNamespace(store)
        fs.write("p", _random_bytes(rng, 10 * CHUNK))
        for digest, holders in store._directory.items():
            assert len(holders) == 2, digest
            assert len(set(holders)) == 2

    def test_dedup_ratio_on_near_duplicate_checkpoints(self):
        """Successive near-dup checkpoints collapse to the changed chunks."""
        rng = random.Random(11)
        store = BlockStore(nodes=1, replicas=1, chunk_size=CHUNK)
        fs = FileNamespace(store)
        ckpt = bytearray(_random_bytes(rng, 16 * CHUNK))
        for version in range(10):
            offset = (version * 131) % (len(ckpt) - 8)
            ckpt[offset : offset + 8] = _random_bytes(rng, 8)
            fs.write("ckpt", bytes(ckpt))
        audit = store.audit()
        # 10 versions x 16 chunks logical; each version dirties at most
        # 2 chunks, so >= 16 + 9*2 = 34 would be the worst case and the
        # expected ratio is at least 160/34 > 4.
        assert audit["dedup_ratio"] >= 4.0
        assert audit["chunks"] <= 34

    def test_logical_bytes_accounting(self):
        store = BlockStore(nodes=1, replicas=1, chunk_size=CHUNK)
        fs = FileNamespace(store)
        fs.write("a", b"x" * CHUNK)
        fs.write("b", b"x" * CHUNK)
        audit = store.audit()
        assert audit["unique_bytes"] == CHUNK
        assert audit["logical_bytes"] == 2 * CHUNK
        assert audit["dedup_ratio"] == 2.0


class TestNamespace:
    def test_missing_path_raises(self):
        fs = FileNamespace(BlockStore(nodes=1, replicas=1))
        with pytest.raises(NotFoundError):
            fs.read("ghost")
        with pytest.raises(NotFoundError):
            fs.stat("ghost")
        with pytest.raises(NotFoundError):
            fs.versions("ghost")
        with pytest.raises(NotFoundError):
            fs.delete("ghost")

    def test_missing_version_raises(self):
        fs = FileNamespace(BlockStore(nodes=1, replicas=1))
        fs.write("p", b"one")
        with pytest.raises(NotFoundError):
            fs.read("p", version=2)

    def test_empty_path_rejected(self):
        fs = FileNamespace(BlockStore(nodes=1, replicas=1))
        with pytest.raises(StorageError):
            fs.write("", b"data")

    def test_list_paths_by_prefix(self):
        fs = FileNamespace(BlockStore(nodes=1, replicas=1))
        fs.write("a/1", b"x")
        fs.write("a/2", b"y")
        fs.write("b/1", b"z")
        assert fs.list_paths("a/") == ["a/1", "a/2"]

    def test_manifest_metadata(self):
        fs = FileNamespace(BlockStore(nodes=1, replicas=1, chunk_size=4))
        manifest = fs.write("p", b"abcdefgh", writer="w0")
        assert manifest.version == 1
        assert manifest.chunk_size == 4
        assert len(manifest.digests) == 2
        assert manifest.writer == "w0"

    def test_concurrent_writers_last_writer_wins(self):
        """Interleaved two-phase writes commit whole manifests only."""
        fs = FileNamespace(BlockStore(nodes=1, replicas=1, chunk_size=4))
        first = fs.begin_write("p", b"AAAABBBBCCCC", writer="w1")
        second = fs.begin_write("p", b"XXXXYYYYZZZZ", writer="w2")
        fs.commit(first)
        committed = fs.commit(second)
        # The last committer wins with its *complete* chunk list — no
        # mixture of w1's and w2's chunks.
        assert fs.read("p") == b"XXXXYYYYZZZZ"
        assert committed.digests == tuple(
            chunk_digest(c) for c in (b"XXXX", b"YYYY", b"ZZZZ")
        )
        # And the loser's version is still fully readable history.
        assert fs.read("p", version=1) == b"AAAABBBBCCCC"
        assert [m.writer for m in fs.versions("p")] == ["w1", "w2"]

    def test_delete_mid_read_raises_not_partial(self):
        """A reader must get NotFound, never a truncated blob."""
        fs = FileNamespace(BlockStore(nodes=1, replicas=1, chunk_size=4))
        fs.write("p", b"AAAABBBBCCCCDDDD")
        reader = fs.read_chunks("p")
        assert next(reader) == b"AAAA"
        fs.delete("p")
        with pytest.raises(NotFoundError, match="mid-read"):
            next(reader)

    def test_overwrite_mid_read_keeps_old_version_readable(self):
        """Version retention means an overwrite does NOT break readers."""
        fs = FileNamespace(BlockStore(nodes=1, replicas=1, chunk_size=4))
        fs.write("p", b"AAAABBBB")
        reader = fs.read_chunks("p")
        assert next(reader) == b"AAAA"
        fs.write("p", b"XXXXYYYY")
        assert next(reader) == b"BBBB"

    def test_shared_store_dedups_across_namespaces(self):
        store = BlockStore(nodes=1, replicas=1, chunk_size=CHUNK)
        one = FileNamespace(store, name="one")
        two = FileNamespace(store, name="two")
        data = b"q" * (4 * CHUNK)
        one.write("a", data)
        two.write("b", data)
        assert store.audit()["chunks"] == 1
        # Namespaces are isolated: deleting in one leaves the other's
        # reference (and the shared bytes) intact.
        one.delete("a")
        assert two.read("b") == data


class TestReplication:
    def _populated(self, replicas=2, nodes=3, paths=6):
        rng = random.Random(42)
        store = BlockStore(nodes=nodes, replicas=replicas, chunk_size=CHUNK)
        fs = FileNamespace(store)
        blobs = {f"p/{i}": _random_bytes(rng, rng.randrange(1, 4 * CHUNK))
                 for i in range(paths)}
        for path, data in blobs.items():
            fs.write(path, data)
        return store, fs, blobs

    def test_node_death_keeps_every_file_readable(self):
        store, fs, blobs = self._populated()
        store.kill_node("dn-1")
        for path, data in blobs.items():
            assert fs.read(path) == data
        audit = _audit(store)
        assert audit["lost"] == []
        assert audit["under_replicated"] == []
        assert audit["rereplications"] > 0

    def test_single_replica_death_loses_chunks_until_rejoin(self):
        store, fs, blobs = self._populated(replicas=1)
        victim = store._directory[next(iter(store._directory))][0]
        store.kill_node(victim)
        assert _audit(store)["lost"] != []
        with pytest.raises(ChunkLostError):
            for path in blobs:
                fs.read(path)
        # The disk survived: rejoin resurrects every lost chunk.
        store.rejoin_node(victim)
        assert _audit(store)["lost"] == []
        for path, data in blobs.items():
            assert fs.read(path) == data

    def test_delete_while_dead_goes_to_trash_and_reconciles(self):
        store, fs, blobs = self._populated()
        victim = "dn-0"
        before = dict(store.node(victim).chunks)
        store.kill_node(victim)
        for path in list(blobs):
            fs.delete(path)
        assert _audit(store)["chunks"] == 0
        # The dead node still physically holds its copies.
        assert store.node(victim).chunks == before
        removed = store.rejoin_node(victim)
        assert removed == len(before)
        assert store.node(victim).chunks == {}
        assert _audit(store)["trash_pending"] == {}

    def test_rejoin_trims_over_replicated_chunks(self):
        store, fs, blobs = self._populated()
        store.kill_node("dn-2")
        store.repair()
        # Everything is back at R=2 on dn-0/dn-1; dn-2's copies are now
        # surplus and must all be trimmed by the rejoin trash pass.
        held = len(store.node("dn-2").chunks)
        assert held > 0
        removed = store.rejoin_node("dn-2")
        assert removed == held
        audit = _audit(store)
        assert audit["lost"] == []
        assert audit["under_replicated"] == []
        for path, data in blobs.items():
            assert fs.read(path) == data

    def test_mid_write_kill_zero_bytes_lost(self):
        """commit() re-stores chunks whose every replica died mid-write."""
        rng = random.Random(5)
        store = BlockStore(nodes=3, replicas=2, chunk_size=CHUNK)
        fs = FileNamespace(store)
        data = _random_bytes(rng, 8 * CHUNK)

        def kill_two(index, digest):
            if index == 3:
                store.kill_node("dn-0")
                store.kill_node("dn-1")

        manifest = fs.write("p", data, on_chunk=kill_two)
        assert fs.read("p") == data
        audit = _audit(store)
        assert audit["lost"] == []

    def test_failed_write_leaves_no_unreferenced_chunks(self):
        """Regression: a put that failed on its third chunk leaked the
        first two at refcount zero, and ``audit()`` called that clean."""
        from repro import chaos
        from repro.chaos import FaultKind, FaultPlan, FaultRule
        from repro.exceptions import InjectedFault

        store = BlockStore(nodes=2, replicas=2, chunk_size=1024)
        fs = FileNamespace(store)
        data = _random_bytes(random.Random(9), 4096)
        plan = FaultPlan(
            [FaultRule("data.store.put", FaultKind.EXCEPTION, after=4)], seed=0
        )
        previous = chaos.set_plan(plan)
        try:
            with pytest.raises(InjectedFault):
                fs.write("p", data)
        finally:
            chaos.set_plan(previous)
        audit = _audit(store)
        assert (audit["chunks"], audit["unique_bytes"], audit["logical_bytes"]) == (0, 0, 0)
        assert audit["unreferenced"] == []
        assert all(not node.chunks for node in store.nodes)
        assert not fs.exists("p")
        # an upload nobody has committed yet is in flight: referenced, not a leak
        pending = fs.begin_write("q", data)
        audit = _audit(store)
        assert audit["unreferenced"] == [] and audit["logical_bytes"] == len(data)
        assert audit["chunks"] == len(set(pending.digests))
        fs.commit(pending)
        fs.write("p", data)
        assert fs.read("p") == data == fs.read("q")
        assert _audit(store)["unreferenced"] == []

    def test_failed_write_keeps_chunks_other_files_reference(self):
        from repro import chaos
        from repro.chaos import FaultKind, FaultPlan, FaultRule
        from repro.exceptions import InjectedFault

        store = BlockStore(nodes=2, replicas=2, chunk_size=1024)
        fs = FileNamespace(store)
        rng = random.Random(10)
        shared = _random_bytes(rng, 2048)
        fs.write("kept", shared)
        plan = FaultPlan([FaultRule("data.store.put", FaultKind.EXCEPTION)], seed=0)
        previous = chaos.set_plan(plan)
        try:
            with pytest.raises(InjectedFault):
                # two dedup hits, then a new chunk that cannot be stored
                fs.write("p", shared + _random_bytes(rng, 1024))
        finally:
            chaos.set_plan(previous)
        assert fs.read("kept") == shared
        audit = _audit(store)
        assert audit["chunks"] == 2 and audit["unreferenced"] == []

    def test_repair_restores_factor(self):
        store, fs, blobs = self._populated()
        store.kill_node("dn-0")
        store.rejoin_node("dn-0")
        assert store.repair() == 0
        assert _audit(store)["under_replicated"] == []

    def test_ensure_rejects_mismatched_digests(self):
        store = BlockStore(nodes=1, replicas=1, chunk_size=CHUNK)
        digests = store.put(b"x" * CHUNK)
        with pytest.raises(StorageError):
            store.ensure(digests, b"y" * 3 * CHUNK)

    def test_ensure_of_an_intact_write_heals_nothing(self, monkeypatch):
        """commit() calls ensure on every write: with every chunk present
        it must not slice (copy) or store any chunk again, only count it."""
        store = BlockStore(nodes=2, replicas=1, chunk_size=CHUNK)
        data = _random_bytes(random.Random(3), 5 * CHUNK + 7)
        digests = store.put(data)
        restored = []
        store_chunk = store._store_chunk

        def spy(digest, chunk):
            restored.append(chunk)
            store_chunk(digest, chunk)

        monkeypatch.setattr(store, "_store_chunk", spy)
        assert store.ensure(digests, data) == 0
        assert restored == []
        for wrong in (digests[:-1], digests + digests[:1]):
            with pytest.raises(StorageError):
                store.ensure(wrong, data)
        # only what lost every live copy is sliced out and re-stored
        on_dn0 = [i for i, d in enumerate(digests) if "dn-0" in store._directory[d]]
        store.kill_node("dn-0")
        assert store.ensure(digests, data) == len(on_dn0) > 0
        assert restored == [data[i * CHUNK:(i + 1) * CHUNK] for i in on_dn0]
        assert b"".join(store.get_chunk(d) for d in digests) == data

    def test_a_chunk_read_while_lost_reads_again_once_restored(self):
        # the empty read order kept by the failed read is dropped when the
        # chunk is stored again
        store = BlockStore(nodes=2, replicas=1, chunk_size=CHUNK)
        data = bytes(range(CHUNK)) + bytes(reversed(range(CHUNK)))
        digests = store.put(data)
        store.kill_node(store._directory[digests[0]][0])
        with pytest.raises(ChunkLostError):
            store.get_chunk(digests[0])
        assert store.ensure(digests, data) >= 1
        assert store.get_chunk(digests[0]) == data[:CHUNK]

    def test_get_unknown_chunk_raises(self):
        store = BlockStore(nodes=1, replicas=1)
        with pytest.raises(ChunkLostError):
            store.get_chunk("0" * 64)

    def test_heartbeat_failure_detection(self, manual_clock):
        store, fs, blobs = self._populated()
        manual_clock.advance(100.0)
        store.heartbeat("dn-0")
        store.heartbeat("dn-1")
        assert store.detect_failures(timeout=50.0) == ["dn-2"]
        assert not store.node("dn-2").alive
        for path, data in blobs.items():
            assert fs.read(path) == data


class TestWritesInFlightHoldTheirChunks:
    """A write is a reference from ``begin_write`` until its commit: no
    delete or failed write elsewhere may collect the chunks it holds."""

    def _counters(self):
        registry = telemetry.get_registry()
        return (
            registry.counter("repro_blockstore_chunk_writes_total").value(),
            registry.counter("repro_fs_commit_heals_total").value(namespace="fs"),
        )

    def test_a_delete_keeps_what_an_uncommitted_write_uploaded(self):
        store = BlockStore(nodes=3, replicas=2, chunk_size=CHUNK)
        fs = FileNamespace(store)
        data = _random_bytes(random.Random(51), CHUNK)
        fs.write("k", data)
        pending = fs.begin_write("a", data)  # a dedup hit on k's chunk
        fs.delete("k")
        assert store.has_chunk(pending.digests[0])
        assert _audit(store)["unreferenced"] == []
        fs.commit(pending)
        # nothing was lost, so nothing is re-uploaded or counted as healed
        assert self._counters() == (1, 0)
        assert fs.read("a") == data

    def test_a_failed_write_keeps_what_another_writer_holds(self, monkeypatch):
        store = BlockStore(nodes=3, replicas=2, chunk_size=CHUNK)
        fs = FileNamespace(store)
        rng = random.Random(53)
        shared, mine, theirs = (_random_bytes(rng, CHUNK) for _ in range(3))
        pending = fs.begin_write("a", shared + theirs)

        def refuse(digests, data):
            raise StorageError("no live datanode accepted the re-store")

        with monkeypatch.context() as patch:
            patch.setattr(store, "ensure", refuse)
            with pytest.raises(StorageError):
                fs.write("b", shared + mine)  # dedup-hits a's first chunk
        assert not fs.exists("b")
        assert store.has_chunk(pending.digests[0])
        assert not store.has_chunk(chunk_digest(mine))
        assert _audit(store)["unreferenced"] == []
        fs.commit(pending)
        assert self._counters() == (3, 0)
        assert fs.read("a") == shared + theirs

    def test_a_failed_commit_stays_in_flight_until_retried(self, monkeypatch):
        store = BlockStore(nodes=3, replicas=2, chunk_size=CHUNK)
        fs = FileNamespace(store)
        data = _random_bytes(random.Random(57), 3 * CHUNK)
        pending = fs.begin_write("p", data)
        with monkeypatch.context() as patch:
            patch.setattr(store, "ensure", lambda digests, data: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                fs.commit(pending)
        fs.write("other", data[:CHUNK])
        fs.delete("other")
        assert _audit(store)["chunks"] == 3
        assert fs.commit(pending).version == 1 and fs.read("p") == data
        assert self._counters() == (3, 0)


class TestDataStoreRebase:
    """DataStore blobs ride the BlockStore behind the unchanged API."""

    def test_versions_reachable_after_overwrite(self):
        store = DataStore()
        store.put_blob("model/ckpt", b"version one")
        store.put_blob("model/ckpt", b"version two")
        assert store.get_blob("model/ckpt") == b"version two"
        assert store.get_blob("model/ckpt", version=1) == b"version one"
        manifests = store.versions("model/ckpt")
        assert [m.version for m in manifests] == [1, 2]

    def test_audit_and_repair_exposed(self):
        store = DataStore()
        store.put_blob("a", b"payload")
        audit = store.audit()
        assert audit["lost"] == []
        assert store.repair() == 0

    def test_shared_block_store_dedups_across_stores(self):
        shared = BlockStore(nodes=1, replicas=1, chunk_size=CHUNK)
        one = DataStore("one", block_store=shared)
        two = DataStore("two", block_store=shared)
        data = b"d" * (3 * CHUNK)
        one.put_blob("x", data)
        two.put_blob("y", data)
        assert shared.audit()["chunks"] == 1
        assert two.get_blob("y") == data


class TestClusterIntegration:
    def _cluster(self, nodes=4, cpus=8):
        from repro.cluster import ClusterManager, Node
        from repro.cluster.node import Resources

        manager = ClusterManager()
        for i in range(nodes):
            manager.add_node(
                Node(f"n{i}", capacity=Resources(cpus=cpus, gpus=0, memory_gb=64))
            )
        return manager

    def test_registration_spreads_datanodes(self):
        from repro.cluster.container import ContainerRole

        manager = self._cluster()
        store = BlockStore(nodes=3, replicas=2, chunk_size=CHUNK)
        job = store.register_with_cluster(manager)
        hosts = [c.node_name for c in job.containers
                 if c.role is ContainerRole.DATA]
        assert len(set(hosts)) == 3
        with pytest.raises(ConfigurationError):
            store.register_with_cluster(manager)

    def test_node_failure_rereplicates_and_replacement_resyncs(self):
        rng = random.Random(9)
        manager = self._cluster()
        store = BlockStore(nodes=3, replicas=2, chunk_size=CHUNK)
        store.register_with_cluster(manager)
        fs = FileNamespace(store)
        blobs = {f"p/{i}": _random_bytes(rng, rng.randrange(1, 4 * CHUNK))
                 for i in range(6)}
        for path, data in blobs.items():
            fs.write(path, data)
        victim = store.nodes[0]
        host = manager.containers[victim.container_id].node_name
        manager.fail_node(host)
        # Capacity exists elsewhere: the replacement datanode restarts
        # on a different machine with a fresh disk and is re-synced.
        assert victim.alive
        assert victim.node_name != host
        store.repair()
        audit = store.audit()
        assert audit["lost"] == []
        assert audit["under_replicated"] == []
        for path, data in blobs.items():
            assert fs.read(path) == data

    def test_same_host_restart_reconciles_preserved_disk(self):
        rng = random.Random(10)
        # Tight capacity: the replacement can only ever fit back on its
        # original machine, so the disk-preserving path is exercised.
        manager = self._cluster(cpus=2)
        store = BlockStore(nodes=3, replicas=2, chunk_size=CHUNK)
        from repro.cluster.node import Resources

        store.register_with_cluster(
            manager, worker_request=Resources(cpus=2, gpus=0, memory_gb=8)
        )
        fs = FileNamespace(store)
        for i in range(6):
            fs.write(f"p/{i}", _random_bytes(rng, rng.randrange(1, 4 * CHUNK)))
        victim = store.nodes[0]
        host = manager.containers[victim.container_id].node_name
        manager.fail_node(host)
        assert not store.live_nodes() or victim not in store.live_nodes()
        fs.delete("p/0")
        manager.recover_node(host)
        assert victim.alive
        assert victim.node_name == host
        audit = store.audit()
        assert audit["lost"] == []
        assert audit["trash_pending"] == {}


@pytest.mark.chaos
class TestStoreKillScenario:
    def test_store_kill_loses_zero_bytes(self):
        from repro.chaos.scenarios import store_kill

        result = store_kill.run(seed=0)
        # the verdict is the spec's; here: both kills really happened
        assert store_kill.check(result) == []
        assert result["victims"]["mid_write"]["deaths"] >= 1
        assert result["victims"]["mid_read"]["deaths"] >= 1
        assert result["audit"]["trash_reconciled"] > 0
        assert result["audit"]["rereplications"] > 0


class TestShardedPSOnBlockStore:
    def test_checkpoint_history_dedups_across_replicas_and_versions(self):
        from repro.paramserver import ShardedParameterServer

        sps = ShardedParameterServer(
            shards=3, replicas=2,
            block_store=BlockStore(nodes=3, replicas=2, chunk_size=4096),
        )
        rng = np.random.default_rng(0)
        state = {"w": rng.standard_normal((64, 64)).astype(np.float32)}
        for i in range(10):
            state["w"][i, :4] += 0.01
            sps.put("model/ckpt", {k: v.copy() for k, v in state.items()},
                    performance=float(i))
        audit = sps.block_store.audit()
        assert audit["dedup_ratio"] > 2.0
        got = sps.get("model/ckpt")
        np.testing.assert_array_equal(got["w"], state["w"])

    def test_default_block_store_is_shared_across_shards(self):
        from repro.paramserver import ShardedParameterServer

        sps = ShardedParameterServer(shards=2, replicas=2)
        assert (len(sps.block_store.nodes), sps.block_store.replicas) == (2, 2)
        rng = np.random.default_rng(1)
        sps.put("k", {"w": rng.standard_normal((32, 32))})
        # One store under every shard: the value is written once (no
        # second copy for dedup to absorb) and the store replicates it.
        assert sps.block_store.audit()["dedup_hits"] == 0
        audit = sps.block_store.audit()
        assert audit["replicated_bytes"] == 2 * audit["unique_bytes"] > 0
        for shard in sps.shards:
            sps.kill_shard(shard.name)
            sps.revive_shard(shard.name)
            np.testing.assert_array_equal(
                sps.get("k")["w"], np.random.default_rng(1).standard_normal((32, 32))
            )
