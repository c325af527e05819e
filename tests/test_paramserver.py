"""Tests for the parameter server and LRU cache.

``TestParameterServer`` runs every behavioural test twice — once
against a default :class:`ParameterServer` and once against what the
``ShardedParameterServer(shards=1, replicas=1)`` constructor builds —
asserting both spellings give the same server.
"""

import pickle

import numpy as np
import pytest

from repro import chaos, telemetry
from repro.chaos import FaultKind, FaultPlan, FaultRule
from repro.exceptions import (
    InjectedFault,
    ParameterNotFoundError,
    ParameterServerError,
    RetryExhaustedError,
)
from repro.utils.retry import RetryPolicy
from repro.paramserver import LRUCache, ParameterServer, ShardedParameterServer


def state(value: float, shape=(4, 4)) -> dict:
    return {"layer/W": np.full(shape, value), "layer/b": np.full(shape[0], value)}


def make_ps(kind: str, **kwargs):
    if kind == "plain":
        return ParameterServer(**kwargs)
    return ShardedParameterServer(shards=1, replicas=1, **kwargs)


@pytest.fixture(params=["plain", "sharded"])
def ps(request):
    return make_ps(request.param)


class TestLRUCache:
    def _cache(self, capacity=100, name="test"):
        return LRUCache(capacity, size_of=lambda v: len(v), name=name)

    def test_hit_and_miss(self):
        cache = self._cache()
        cache.put("a", b"12345")
        assert cache.get("a") == b"12345"
        assert cache.get("b") is None
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_eviction_lru_order(self):
        cache = self._cache(capacity=10)
        cache.put("a", b"12345")
        cache.put("b", b"12345")
        cache.get("a")  # a is now most-recent
        cache.put("c", b"12345")  # evicts b
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert cache.evictions == 1

    def test_oversized_value_not_cached(self):
        cache = self._cache(capacity=3)
        cache.put("big", b"12345")
        assert "big" not in cache

    def test_overwrite_updates_budget(self):
        cache = self._cache(capacity=10)
        cache.put("a", b"12345")
        cache.put("a", b"12")
        assert cache.used_bytes == 2

    def test_invalidate(self):
        cache = self._cache()
        cache.put("a", b"123")
        cache.invalidate("a")
        assert "a" not in cache
        assert cache.used_bytes == 0

    # -- gauge freshness regressions ----------------------------------
    # invalidate(), clear() and the oversized-overwrite path all change
    # used_bytes; each must republish the byte gauge or monitoring
    # reports phantom memory.

    def _used_gauge(self):
        return telemetry.get_registry().gauge(
            "repro_cache_used_bytes", "Bytes held by a named cache."
        )

    def test_invalidate_republishes_gauge(self):
        cache = self._cache(name="t")
        cache.put("a", b"12345")
        assert self._used_gauge().value(cache="t") == 5
        cache.invalidate("a")
        assert self._used_gauge().value(cache="t") == 0

    def test_clear_republishes_gauge(self):
        cache = self._cache(name="t")
        cache.put("a", b"12345")
        cache.put("b", b"123")
        cache.clear()
        assert len(cache) == 0
        assert self._used_gauge().value(cache="t") == 0

    def test_oversized_overwrite_republishes_gauge(self):
        cache = self._cache(capacity=10, name="t")
        cache.put("a", b"12345")
        # Overwriting with a value too big to cache frees a's 5 bytes.
        cache.put("a", b"x" * 50)
        assert "a" not in cache
        assert cache.used_bytes == 0
        assert self._used_gauge().value(cache="t") == 0


class TestParameterServer:
    def test_put_get_roundtrip(self, ps):
        ps.put("m/best", state(1.0))
        fetched = ps.get("m/best")
        np.testing.assert_allclose(fetched["layer/W"], 1.0)

    def test_get_returns_copy(self, ps):
        ps.put("k", state(1.0))
        fetched = ps.get("k")
        fetched["layer/W"][...] = 99.0
        np.testing.assert_allclose(ps.get("k")["layer/W"], 1.0)

    def test_versioning(self, ps):
        ps.put("k", state(1.0))
        ps.put("k", state(2.0))
        assert ps.versions("k") == 2
        np.testing.assert_allclose(ps.get("k")["layer/W"], 2.0)  # latest
        np.testing.assert_allclose(ps.get("k", version=1)["layer/W"], 1.0)

    def test_missing_key_raises(self, ps):
        with pytest.raises(ParameterNotFoundError):
            ps.get("nope")
        ps.put("k", state(1.0))
        with pytest.raises(ParameterNotFoundError):
            ps.get("k", version=7)

    def test_delete(self, ps):
        ps.put("k", state(1.0))
        ps.delete("k")
        assert not ps.has("k")
        with pytest.raises(ParameterNotFoundError):
            ps.delete("k")

    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_cold_read_after_cache_eviction(self, kind):
        """Evicted parameters are reloaded from the backing store."""
        ps = make_ps(kind, cache_bytes=200)  # fits barely one state
        ps.put("a", state(1.0))
        ps.put("b", state(2.0))  # evicts a from the cache
        np.testing.assert_allclose(ps.get("a")["layer/W"], 1.0)

    def test_cache_hits_on_hot_key(self, ps):
        ps.put("hot", state(1.0))
        before = ps.cache_stats()["hits"]
        for _ in range(5):
            ps.get("hot")
        assert ps.cache_stats()["hits"] == before + 5


class TestOneShardServer:
    """What a default server shares with every multi-shard one."""

    def test_stored_blob_is_pickle_dumps(self):
        """Checkpoints are pickled into pieces and joined; the stored bytes
        are what ``pickle.dumps`` gives, so chunk digests and dedup are too."""
        rng = np.random.default_rng(0)
        states = [
            {},
            state(1.0),
            {"W": rng.standard_normal(1 << 17), "b": np.zeros(3, dtype=np.float32)},
            {"F": np.asfortranarray(rng.standard_normal((300, 200))),
             "strided": rng.standard_normal((400, 400))[::2],
             "ints": np.arange(70000, dtype=np.int64)},
        ]
        server = ParameterServer()
        for index, value in enumerate(states):
            entry = server.put(f"k{index}", value)
            stored = {name: array.copy() for name, array in value.items()}
            assert server.store.get_blob(entry.path) == pickle.dumps(
                stored, pickle.HIGHEST_PROTOCOL)

    def test_values_that_pickle_differently_are_copied_first(self, tmp_path):
        """A put pickles an exact, C-contiguous, writable array as it is and
        copies anything else: either way the stored bytes are ``dumps`` of
        the copies, whatever the value."""
        rng = np.random.default_rng(1)
        read_only = rng.standard_normal(70000)
        read_only.flags.writeable = False
        mapped = np.memmap(tmp_path / "w.bin", dtype=np.float32, mode="w+", shape=(300,))
        mapped[:] = np.arange(300)
        shared = np.arange(5.0)
        states = [
            {"read_only": read_only, "plain": np.ones(4)},
            {"zero_d": np.array(3.5), "scalar": np.float32(2.0), "int": np.int64(7)},
            {"big_endian": np.arange(20000, dtype=">f4"),
             "little": np.arange(6, dtype="<i2")},
            {"memmap": mapped, "view": rng.standard_normal((30, 30))[2:5]},
            {"twice": shared, "again": shared},  # one object under two names
        ]
        server = ParameterServer()
        for index, value in enumerate(states):
            entry = server.put(f"k{index}", value)
            stored = {name: array.copy() for name, array in value.items()}
            assert server.store.get_blob(entry.path) == pickle.dumps(
                stored, pickle.HIGHEST_PROTOCOL)
            got = server.get(f"k{index}")
            assert got.keys() == value.keys()
            for name in value:
                np.testing.assert_array_equal(got[name], value[name])
                assert np.asarray(got[name]).dtype == np.asarray(value[name]).dtype

    def test_audit_is_clean_after_a_costudy_and_after_delete(self):
        from repro.core.tune import (
            CoStudy, HyperConf, RandomSearchAdvisor, StudyMaster, SurrogateTrainer,
            make_workers, run_study, section71_space,
        )

        server = ParameterServer()
        conf = HyperConf(max_trials=12, max_epochs_per_trial=20, delta=0.005)
        master = StudyMaster(
            "audit", conf,
            RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(2)),
            server, scheduler=CoStudy(rng=np.random.default_rng(9)),
        )
        run_study(master, make_workers(master, SurrogateTrainer(seed=2), server, conf, 3))
        assert server.keys()
        clean = {"keys_lost": 0, "under_replicated": [], "divergent": [],
                 "rereplications": 0, "live_shards": ["ps-0"]}
        assert server.audit() == {"keys": len(server.keys()), **clean}
        assert server.repair() == 0
        for key in server.keys():
            server.delete(key)
        assert server.audit() == {"keys": 0, **clean}
        assert server.store.blocks.audit()["chunks"] == 0

    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_faults_propagate_then_the_breaker_answers(self, kind, manual_clock):
        """The one-shard error contract, same under both spellings: the
        injected fault (or the exhausted retry) reaches the caller; after
        three in a row the shard's breaker is open and the server answers
        ``ParameterServerError`` until the 30 s recovery window is over."""
        ps = make_ps(kind)
        ps.put("k", state(1.0))
        plan = FaultPlan(
            [FaultRule("paramserver.pull", FaultKind.EXCEPTION, max_faults=3)], seed=0
        )
        with chaos.active(plan):
            for _ in range(3):
                with pytest.raises(InjectedFault):
                    ps.get("k")
            with pytest.raises(ParameterServerError, match="no live"):
                ps.get("k")
            with pytest.raises(ParameterServerError):
                ps.put("k", state(2.0))
            assert plan.invocations("paramserver.pull") == 3  # not even attempted
            manual_clock.advance(30.0)
            np.testing.assert_allclose(ps.get("k")["layer/W"], 1.0)
        assert ps.versions("k") == 1

    @pytest.mark.parametrize("kind", ["plain", "sharded"])
    def test_exhausted_retry_propagates(self, kind):
        ps = make_ps(kind, retry=RetryPolicy(
            max_attempts=2, jitter=0.0, retry_on=(InjectedFault,), seed=0))
        plan = FaultPlan([FaultRule("paramserver.shard.ps-0.push", FaultKind.DROP)], seed=0)
        with chaos.active(plan):
            with pytest.raises(RetryExhaustedError):
                ps.put("k", state(1.0))
        assert not ps.has("k") and ps.audit()["divergent"] == []


class TestAKeyDeleteCollectsOnce:
    """``delete`` drops every version path of a key, then asks the block
    store to collect once, so each namespace's reader runs once."""

    @staticmethod
    def _system():
        """Two 16-version keys and a blob sharing chunks with them; the
        blob's store is returned too, since a dropped store holds nothing."""
        from repro.data import BlockStore, DataStore

        blocks = BlockStore(nodes=3, replicas=2, chunk_size=1024)
        server = ParameterServer(store=DataStore("ps", block_store=blocks), shards=2)
        base = np.random.default_rng(3).standard_normal(4096).astype(np.float32)
        other = DataStore("other", block_store=blocks)
        other.put_blob("base", pickle.dumps({"W": base}, pickle.HIGHEST_PROTOCOL))
        for key, step_size in (("a", 1.0), ("b", 2.0)):
            value = {"W": base.copy()}
            for step in range(16):
                value["W"][step * 64:(step + 1) * 64] += step_size
                server.put(key, value)
        return blocks, server, other

    def test_each_reader_runs_once_and_the_same_chunks_stay(self):
        blocks, server, _other = self._system()
        calls = []

        def counted(read):
            return lambda namespace: calls.append(namespace) or read(namespace)

        for reader in blocks._readers:
            reader.read = counted(reader.read)
        before = len(blocks._directory)
        server.delete("a")
        # one call each: the parameter server's namespace and the other one
        assert sorted(namespace.name for namespace in calls) == ["other", "ps"]
        assert 0 < len(blocks._directory) < before

        per_path_blocks, per_path, _per_path_other = self._system()
        for version in range(1, 17):
            per_path.store.delete_blobs([per_path.get_entry("a", version).path])
        assert blocks._directory == per_path_blocks._directory
        assert [node.chunks for node in blocks.nodes] == [
            node.chunks for node in per_path_blocks.nodes
        ]
        assert blocks.audit() == per_path_blocks.audit()
        assert not server.has("a") and server.versions("b") == 16

    def test_a_missing_blob_raises_before_anything_is_deleted(self):
        from repro.exceptions import DatasetNotFoundError

        blocks, server, _other = self._system()
        paths = [server.get_entry("a", version).path for version in (1, 2)]
        with pytest.raises(DatasetNotFoundError):
            server.store.delete_blobs([*paths, "params/a/v99"])
        assert all(server.store.has_blob(path) for path in paths)


class TestPutComparesWithTheLatestVersion:
    """Each version is put against the key's latest one (``params/k/v{n-1}``),
    so the block store hashes only the chunks a training step changed."""

    @pytest.fixture
    def spied(self, monkeypatch):
        """A server whose block-store puts record their basis and hashes."""
        from repro.data import blockstore

        server = ParameterServer(shards=2, cache_bytes=1)  # every get reads the store
        blocks = server.block_store
        put, digest_of = blocks.put, blockstore.chunk_digest
        bases, hashed = [], []

        def put_spy(data, on_chunk=None, basis=()):
            bases.append(tuple(basis))
            return put(data, on_chunk=on_chunk, basis=basis)

        def digest_spy(chunk):
            hashed.append(bytes(chunk))
            return digest_of(chunk)

        monkeypatch.setattr(blocks, "put", put_spy)
        monkeypatch.setattr(blockstore, "chunk_digest", digest_spy)
        return server, bases, hashed

    @staticmethod
    def weights(seed: int) -> dict:
        rng = np.random.default_rng(seed)  # 1 MiB of float32: 17 chunks of 64 KiB
        return {"W": rng.standard_normal((512, 512)).astype(np.float32),
                "b": np.zeros(512, dtype=np.float32)}

    def test_a_dirty_slice_hashes_only_the_chunks_it_covers(self, spied):
        server, bases, hashed = spied
        size = server.block_store.chunk_size
        weights = self.weights(3)
        server.put("other", self.weights(4))
        history = []
        for step in range(4):
            weights["W"][97 * step, 100:356] += 1.0  # a 1 KiB slice
            bases.clear()
            hashed.clear()
            entry = server.put("k", weights)
            history.append({name: value.copy() for name, value in weights.items()})
            if step == 0:
                assert bases == [()] and len(hashed) == 17
                continue
            previous = f"params/k/v{entry.version - 1}"
            assert bases == [server.store.fs.stat(previous).digests]
            new, old = server.store.get_blob(entry.path), server.store.get_blob(previous)
            dirty = [new[i:i + size] for i in range(0, len(new), size)
                     if new[i:i + size] != old[i:i + size]]
            assert hashed == dirty and 1 <= len(dirty) <= 2
        for version, want in enumerate(history, start=1):
            got = server.get("k", version=version)
            assert got.keys() == want.keys()
            for name in want:
                np.testing.assert_array_equal(got[name], want[name])

    def test_the_first_put_after_delete_compares_against_nothing(self, spied):
        server, bases, hashed = spied
        weights = self.weights(5)
        server.put("k", weights)
        server.put("k", weights)
        assert len(hashed) == 17  # the unchanged second version hashed nothing
        server.delete("k")
        bases.clear()
        hashed.clear()
        assert server.put("k", weights).version == 1
        assert bases == [()] and len(hashed) == 17
        np.testing.assert_array_equal(server.get("k", version=1)["W"], weights["W"])


class TestGetAndPutShareNoMemory:
    """The cache holds pickled bytes; every get unpickles arrays of its own.

    ``uncached``: no cache, every get reads chunks; ``put``: the put cached
    the blob it stored; ``read``: a first get read the chunk list and
    cached it, the following gets hit.
    """

    @staticmethod
    def server(shards: int, path: str) -> ParameterServer:
        from repro.data import DataStore

        return ParameterServer(
            store=DataStore("ps", nodes=3, replicas=2, chunk_size=256),
            shards=shards, cache_bytes=1 if path == "uncached" else 1 << 20,
        )

    @pytest.mark.parametrize("path", ["uncached", "put", "read"])
    @pytest.mark.parametrize("shards", [1, 4])
    def test_isolation(self, shards, path):
        server = self.server(shards, path)
        original = {"W": np.arange(1024, dtype=np.float32).reshape(32, 32),
                    "b": np.linspace(0.0, 1.0, 300)}
        expected = {name: value.copy() for name, value in original.items()}
        server.put("k", original)
        if path == "read":
            for shard in server.shards:
                shard.cache.clear()
            server.get("k")  # a miss: caches the chunk list it read
        hits = server.cache_stats()["hits"]
        for value in original.values():
            value[...] = -1  # the caller's state moves on after the put
        first, second = server.get("k"), server.get("k")
        assert server.cache_stats()["hits"] - hits == (0 if path == "uncached" else 2)
        for name, want in expected.items():
            for got in (first, second):
                np.testing.assert_array_equal(got[name], want)
                assert got[name].flags.writeable and got[name].flags.c_contiguous
            assert not np.shares_memory(first[name], second[name])
            assert not np.shares_memory(first[name], original[name])
            first[name][...] = 99  # the caller mutates what get returned
        for name, want in expected.items():
            np.testing.assert_array_equal(server.get("k")[name], want)
