"""Block store and its parameter-server tier: dedup, kills, cache hit rates.

Three seeded phases, all ``simulated`` (counts and audits, no timing —
put/get throughput is what the ``ckpt_store`` workload of
``BENCHMARK.json`` measures, calibrated):

1. **dedup** — a 10-checkpoint study of one model pushed through a
   ``ParameterServer`` (3 shards) over a 3-node, 2-replica
   :class:`~repro.data.blockstore.BlockStore`: each checkpoint is
   written once, successive checkpoints are near-duplicates, so content
   addressing must collapse them — gated at ``dedup_ratio > 2``;
2. **zero-bytes-lost** — a datanode is killed between two chunk
   uploads of a write; the commit-time heal plus repair must leave
   every file bit-identical, zero lost or under-replicated chunks;
3. **serving tier** — the parameter server is an index over that block
   store; at shard counts {1, 2, 4} (chunk replicas = min(2, shards))
   it takes ``keys`` checkpoints, serves Zipf-skewed reads (the access
   pattern of collaborative tuning: everyone pulls the current best)
   through a cache smaller than the working set, then loses shard
   ``ps-0`` *and* datanode ``dn-0`` mid-serve and must finish the reads
   with zero keys lost and a clean audit.

``wall`` has two rows, each best of 5 calls, 3 rounds:

* ``put_near_duplicate``: microseconds per ``BlockStore.put`` of a
  1 MiB blob with a 1 KiB edit at 64 KiB chunks, against the digest
  list of the blob it edits (``basis``) and without one, alternating.
  Both sides must return the same digests (gated; the timings are not);
* ``get_near_duplicate``: microseconds per 1 MiB ``ParameterServer.get``
  of such an edited version, through 4 shards whose caches hold nothing
  (every get reads its chunks), per ``BlockStore.get_chunk`` over that
  version's chunks, per 1 MiB ``ParameterServer.put`` of a 1 KiB edit
  (``put_us``), and per cache-hit get of a ``make_state`` checkpoint
  (``small_hit_get_us``, the tuning path); with the minor page faults
  (``ru_minflt``) per 1 MiB get and per put. The arrays read back must
  equal the arrays put (gated).

Run through the shared runner (see ``_perf.py``)::

    python benchmarks/bench_perf_store.py [--smoke] [--seed N]
"""

import resource
import sys
import time

import _perf
import numpy as np

from repro.data import DataStore
from repro.data.blockstore import BlockStore
from repro.data.fs import FileNamespace
from repro.paramserver import ParameterServer

SHARD_COUNTS = (1, 2, 4)
#: fixed: the dedup acceptance criterion's study size.
CHECKPOINTS = 10
#: ``put_near_duplicate``: blob bytes, chunk size, edited bytes.
BLOB, CHUNK, EDIT = 1 << 20, 64 * 1024, 1024


def make_state(rng) -> dict:
    """One MLP-sized checkpoint: ~38KB (two dense layers + biases)."""
    return {
        "fc1/W": rng.standard_normal((64, 128)).astype(np.float32),
        "fc1/b": rng.standard_normal(128).astype(np.float32),
        "fc2/W": rng.standard_normal((128, 10)).astype(np.float32),
        "fc2/b": rng.standard_normal(10).astype(np.float32),
    }


def bench_dedup(seed: int) -> dict:
    """PS history dedup across ``CHECKPOINTS`` checkpoints of one model.

    Each step perturbs a slice of the weights and pushes the full state
    dict. Every checkpoint is one logical copy (the store, not the
    parameter server, replicates it) — content addressing must store
    the unchanged chunks once.
    """
    rng = np.random.default_rng(seed)
    sps = ParameterServer(
        store=DataStore("ps-backing", nodes=3, replicas=2, chunk_size=4096),
        shards=3,
    )
    state = make_state(rng)
    for step in range(CHECKPOINTS):
        state["fc1/W"][step % 64, : 8] += 0.01  # a gradient step's dirty slice
        sps.put("study/best", {k: v.copy() for k, v in state.items()},
                performance=float(step))
    audit = sps.block_store.audit()
    restored = sps.get("study/best")
    return {
        "checkpoints": CHECKPOINTS,
        "shards": 3,
        "chunk_replicas": sps.replicas,
        "restored_intact": all(np.array_equal(restored[k], state[k]) for k in state),
        **{k: audit[k] for k in
           ("logical_bytes", "unique_bytes", "dedup_ratio", "dedup_hits")},
    }


def bench_kill(files: int, file_bytes: int, seed: int) -> dict:
    """Mid-write datanode kill, then repair; what survived, per the audit."""
    rng = np.random.default_rng(seed)
    store = BlockStore(nodes=3, replicas=2, chunk_size=16 * 1024)
    fs = FileNamespace(store)
    payloads = {
        f"f/{i}": rng.integers(0, 256, file_bytes, dtype=np.uint8).tobytes()
        for i in range(files)
    }
    *written, (last_path, last_data) = payloads.items()
    for path, data in written:
        fs.write(path, data)

    def kill(index: int, digest: str) -> None:
        if index == 1:
            store.kill_node("dn-0")

    fs.write(last_path, last_data, on_chunk=kill)
    store.repair()
    return {
        "files": files,
        "file_bytes": file_bytes,
        "lost_bytes": sum(
            len(data) for path, data in payloads.items() if fs.read(path) != data
        ),
        "audit": store.audit(),
    }


def zipfish_keys(rng, keys: int, gets: int) -> list[int]:
    """Hot-key skew: rank r is drawn proportionally to 1/(r+1)."""
    weights = 1.0 / np.arange(1, keys + 1)
    return list(rng.choice(keys, size=gets, p=weights / weights.sum()))


def bench_serving_tier(shards: int, keys: int, gets: int, seed: int) -> dict:
    """Load, serve hot-key reads, kill a shard and a datanode, serve on."""
    rng = np.random.default_rng(seed)
    # The cache budget is deliberately about half the working set
    # (~38KB/key) so the hit rate reflects the LRU under hot-key skew
    # rather than saturating at 1.0.
    server = ParameterServer(
        store=DataStore("ps-backing", nodes=shards, replicas=min(2, shards)),
        shards=shards, cache_bytes=keys * 20 * 1024,
    )
    for i in range(keys):
        server.put(f"ckpt/{i}", make_state(rng), performance=float(i))
    for i in zipfish_keys(rng, keys, gets):
        server.get(f"ckpt/{i}")
    row = {
        "shards": shards,
        "replicas": server.replicas,
        "keys": keys,
        "gets": gets,
        "cache_hit_rate": round(server.cache_stats()["hit_rate"], 4),
    }
    if shards > 1:
        server.kill_shard("ps-0")
        server.block_store.kill_node("dn-0")
        for i in zipfish_keys(rng, keys, gets // 2):
            server.get(f"ckpt/{i}")
        row["audit_after_kill"] = server.audit()
    return row


def put_near_duplicate(seed: int) -> dict:
    """Microseconds per put of an edited blob, with and without its basis."""
    rng = np.random.default_rng(seed)
    store = BlockStore(nodes=3, replicas=2, chunk_size=CHUNK)
    blob = bytearray(rng.integers(0, 256, BLOB, dtype=np.uint8).tobytes())
    # each side's timings, by the basis its puts name
    sides = {"basis_us": store.put(bytes(blob)), "no_basis_us": ()}
    offset = BLOB // 3
    blob[offset:offset + EDIT] = rng.integers(0, 256, EDIT, dtype=np.uint8).tobytes()
    blob = bytes(blob)
    digests = [store.put(blob, basis=basis) for basis in sides.values()]
    rounds: dict[str, list[float]] = {name: [] for name in sides}
    for _ in range(3):
        for name, basis in sides.items():
            best = float("inf")
            for _ in range(5):
                start = time.perf_counter()
                store.put(blob, basis=basis)
                best = min(best, time.perf_counter() - start)
            rounds[name].append(1e6 * best)
    return {**rounds, "same_digests": digests[0] == digests[1]}


def get_near_duplicate(seed: int) -> dict:
    """Microseconds per uncached 1 MiB parameter-server get, per chunk read,
    per 1 MiB put and per cache-hit get of a small checkpoint."""
    rng = np.random.default_rng(seed)
    blocks = BlockStore(nodes=3, replicas=2, chunk_size=CHUNK)
    server = ParameterServer(
        store=DataStore("ps-backing", block_store=blocks), shards=4, cache_bytes=1
    )
    state = {"W": rng.standard_normal(BLOB // 4).astype(np.float32)}
    server.put("ckpt", state)
    offset = BLOB // 12
    state["W"][offset:offset + EDIT // 4] += np.float32(1.0)
    server.put("ckpt", state)
    expected = {name: value.copy() for name, value in state.items()}
    digests = server.store.fs.stat(server.get_entry("ckpt").path).digests
    got = server.get("ckpt")
    small = make_state(rng)
    hot = ParameterServer(store=DataStore("ps-hot", nodes=3, replicas=2), shards=4)
    hot.put("small", small)

    def read_chunks():
        for digest in digests:
            blocks.get_chunk(digest)

    def put():
        # a training step: a 1 KiB slice moves, then the whole state is put
        state["W"][offset:offset + EDIT // 4] += np.float32(1.0)
        server.put("edited", state)

    calls = {
        "get_us": (lambda: server.get("ckpt"), 1),
        "chunk_read_us": (read_chunks, len(digests)),
        "put_us": (put, 1),
        "small_hit_get_us": (lambda: hot.get("small"), 1),
    }
    rounds: dict[str, list[float]] = {name: [] for name in calls}
    faults = {name: 0 for name in calls}
    for _ in range(3):
        for name, (call, per) in calls.items():
            best = float("inf")
            for _ in range(5):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.perf_counter()
                call()
                best = min(best, time.perf_counter() - start)
                faults[name] += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            rounds[name].append(1e6 * best / per)
    calls_each = 3 * 5
    return {
        **rounds,
        "chunks": len(digests),
        "minflt_per_get": faults["get_us"] / calls_each,
        "minflt_per_put": faults["put_us"] / calls_each,
        "same_arrays": _same(got, expected) and _same(server.get("edited"), state)
        and _same(hot.get("small"), small),
    }


def _same(got: dict, put: dict) -> bool:
    return got.keys() == put.keys() and all(
        np.array_equal(got[name], put[name]) for name in put
    )


def run(smoke: bool, seed: int) -> dict:
    files, file_bytes = (3, 256 * 1024) if smoke else (4, 1024 * 1024)
    keys, gets = (40, 400) if smoke else (200, 4000)
    return {
        "simulated": {
            "seed": seed,
            "dedup": bench_dedup(seed),
            "mid_write_kill": bench_kill(files, file_bytes, seed),
            "serving_tier": {
                str(shards): bench_serving_tier(shards, keys, gets, seed)
                for shards in SHARD_COUNTS
            },
        },
        "wall": {
            "put_near_duplicate": put_near_duplicate(seed),
            "get_near_duplicate": get_near_duplicate(seed),
        },
    }


def table(payload: dict) -> str:
    sim = payload["simulated"]
    dedup, kill = sim["dedup"], sim["mid_write_kill"]
    lines = [
        f"dedup: {dedup['checkpoints']} checkpoints, "
        f"{dedup['chunk_replicas']} chunk replicas -> {dedup['dedup_ratio']}x "
        f"({dedup['logical_bytes']}B logical / {dedup['unique_bytes']}B unique)",
        f"mid-write kill: {kill['lost_bytes']} bytes lost, "
        f"{kill['audit']['rereplications']} re-replications, "
        f"lost chunks {kill['audit']['lost']}, "
        f"under-replicated {kill['audit']['under_replicated']}",
        f"{'shards':>6} {'replicas':>8} {'keys':>6} {'hit rate':>9} "
        f"{'keys lost (1 dead)':>19} {'re-repl':>8}",
    ]
    for row in sim["serving_tier"].values():
        audit = row.get("audit_after_kill")
        lines.append(
            f"{row['shards']:>6} {row['replicas']:>8} {row['keys']:>6} "
            f"{row['cache_hit_rate']:>9.3f} "
            f"{audit['keys_lost'] if audit else '-':>19} "
            f"{audit['rereplications'] if audit else '-':>8}"
        )
    put = payload["wall"]["put_near_duplicate"]
    lines.append(
        f"put of a 1 MiB blob, 1 KiB edit, 64 KiB chunks (us, 3 rounds): "
        f"basis {min(put['basis_us']):.0f}-{max(put['basis_us']):.0f}, "
        f"no basis {min(put['no_basis_us']):.0f}-{max(put['no_basis_us']):.0f} "
        f"({min(put['no_basis_us']) / min(put['basis_us']):.2f}x); "
        f"same digests: {put['same_digests']}"
    )
    get = payload["wall"]["get_near_duplicate"]
    lines.append(
        f"uncached get of a 1 MiB checkpoint, {get['chunks']} chunks (us, 3 rounds): "
        f"get {min(get['get_us']):.0f}-{max(get['get_us']):.0f}, "
        f"per chunk read {min(get['chunk_read_us']):.1f}-{max(get['chunk_read_us']):.1f}; "
        f"put of a 1 KiB edit {min(get['put_us']):.0f}-{max(get['put_us']):.0f}; "
        f"cache-hit get of a ~38KB checkpoint "
        f"{min(get['small_hit_get_us']):.1f}-{max(get['small_hit_get_us']):.1f}; "
        f"minor faults per get {get['minflt_per_get']:.1f}, "
        f"per put {get['minflt_per_put']:.1f}; same arrays: {get['same_arrays']}"
    )
    return "\n".join(lines)


def check(payload: dict) -> list[str]:
    sim = payload["simulated"]
    dedup, kill = sim["dedup"], sim["mid_write_kill"]
    failures = []
    if not dedup["restored_intact"]:
        failures.append("dedup study: the latest checkpoint read back differs")
    if dedup["dedup_ratio"] <= 2.0:
        failures.append(
            f"dedup gate failed: {dedup['dedup_ratio']}x <= 2x over "
            f"{dedup['checkpoints']} checkpoints"
        )
    if kill["lost_bytes"] or kill["audit"]["lost"]:
        failures.append(
            f"mid-write kill lost {kill['lost_bytes']} bytes "
            f"(chunks {kill['audit']['lost']})"
        )
    if kill["audit"]["under_replicated"]:
        failures.append(
            f"mid-write kill left chunks under-replicated after repair: "
            f"{kill['audit']['under_replicated']}"
        )
    for row in sim["serving_tier"].values():
        audit = row.get("audit_after_kill")
        if audit and (audit["keys_lost"] or audit["divergent"]
                      or audit["under_replicated"]):
            failures.append(
                f"{row['shards']}-shard tier after shard + datanode kill: {audit}"
            )
    if not payload["wall"]["put_near_duplicate"]["same_digests"]:
        failures.append("put_near_duplicate: a basis changed the digests")
    if not payload["wall"]["get_near_duplicate"]["same_arrays"]:
        failures.append("get_near_duplicate: the arrays read back differ from those put")
    return failures


if __name__ == "__main__":
    raise SystemExit(_perf.main(sys.modules[__name__]))
