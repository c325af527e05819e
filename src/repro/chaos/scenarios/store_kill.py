"""The store-kill scenario: datanodes die mid-write and mid-read."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.chaos.faults import FaultKind, FaultPlan, FaultRule
from repro.chaos.scenarios._core import (
    _bytes_digest,
    _failures,
    _sandbox,
    _trace_counters,
)


def run(seed: int = 0, datanodes: int = 3, replicas: int = 2) -> dict[str, Any]:
    """Kill datanodes mid-write *and* mid-read; prove zero bytes lost.

    A :class:`~repro.data.blockstore.BlockStore` hosts its datanodes as
    cluster containers on a deliberately tight cluster (a replacement
    container cannot fit anywhere else, so a failed datanode stays down
    until its machine recovers — and then restarts on the *same* host,
    exercising the preserved-disk trash-reconciliation path). Under a
    seeded plan of dropped chunk writes and slowed reads:

    1. a near-duplicate checkpoint series and a unique scratch blob are
       written through a :class:`~repro.data.fs.FileNamespace`;
    2. the node hosting the first datanode fails *mid-write* (between
       two chunk uploads of a new checkpoint version) — commit's
       write-back heal re-stores any chunk that lost every copy, so the
       version still commits complete;
    3. the scratch blob is deleted while that datanode is dead,
       queueing its copies in the node's trash set;
    4. the node hosting the second datanode fails *mid-read* — the read
       fails over to the surviving replica and still returns the exact
       bytes;
    5. both machines recover; each datanode restarts on its original
       host, keeps its disk, and runs the trash pass (stale chunks
       deleted, still-needed survivors re-admitted).

    The returned trace (fault log, placement/repair counters, file
    digests) is bit-identical across same-seed runs; :func:`check` is
    the verdict.
    """
    from repro.cluster import ClusterManager, Node
    from repro.cluster.node import Resources
    from repro.data.blockstore import BlockStore
    from repro.data.fs import FileNamespace

    plan = FaultPlan(
        [
            # Some chunk uploads are dropped (bounded, so no chunk can
            # lose every target): the write skips that replica and the
            # next repair() restores the factor.
            FaultRule("data.store.put", FaultKind.DROP, probability=0.04,
                      max_faults=6),
            # Reads gain latency but never fail outright — failover in
            # this scenario comes from the node kills themselves.
            FaultRule("data.store.get", FaultKind.LATENCY, probability=0.2,
                      latency=0.01),
        ],
        seed=seed,
    )
    with _sandbox(plan) as (registry, _clock):
        # Capacity math (deliberate): 4 machines x 2 cpus. The job's
        # master (1 cpu) lands on n0; each datanode worker (2 cpus)
        # fills one of n1..n3 completely. A failed worker's replacement
        # needs 2 cpus but the best free node offers 1 — so it queues,
        # and recover_node() restarts it on its original machine.
        manager = ClusterManager()
        for i in range(datanodes + 1):
            manager.add_node(
                Node(f"n{i}", capacity=Resources(cpus=2, gpus=0, memory_gb=16))
            )
        store = BlockStore(nodes=datanodes, replicas=replicas, chunk_size=4096)
        store.register_with_cluster(
            manager, worker_request=Resources(cpus=2, gpus=0, memory_gb=8)
        )
        fs = FileNamespace(store, name="chaos")

        rng = np.random.default_rng(seed)
        ckpt = bytearray(rng.integers(0, 256, 20000, dtype=np.uint8).tobytes())
        originals: dict[str, bytes] = {}
        for version in range(1, 6):
            offset = (version * 997) % (len(ckpt) - 64)
            ckpt[offset : offset + 64] = rng.integers(
                0, 256, 64, dtype=np.uint8
            ).tobytes()
            data = bytes(ckpt)
            fs.write("model/ckpt", data, writer="study")
            originals[f"model/ckpt@{version}"] = data
        scratch = rng.integers(0, 256, 64 * 1024, dtype=np.uint8).tobytes()
        fs.write("data/scratch", scratch, writer="study")
        # The dropped-write faults leave some chunks below the factor;
        # heal them (the operator's periodic repair) so surviving the
        # coming kills depends on replication, not luck.
        repaired_initial = store.repair()

        victim_write = store.nodes[0]
        victim_read = store.nodes[1]
        write_host = manager.containers[victim_write.container_id].node_name
        read_host = manager.containers[victim_read.container_id].node_name

        # --- mid-write kill -------------------------------------------
        offset = (6 * 997) % (len(ckpt) - 64)
        ckpt[offset : offset + 64] = rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
        mid_write = bytes(ckpt)
        killed = False

        def kill_mid_write(index: int, digest: str) -> None:
            nonlocal killed
            if index == 2 and not killed:
                killed = True
                manager.fail_node(write_host)

        manifest = fs.write(
            "model/ckpt", mid_write, writer="study", on_chunk=kill_mid_write
        )
        originals[f"model/ckpt@{manifest.version}"] = mid_write
        mid_write_ok = fs.read("model/ckpt") == mid_write
        repaired_after_write = store.repair()

        # --- delete while the datanode is dead: populates its trash ---
        fs.delete("data/scratch")
        trash_pending = dict(store.audit()["trash_pending"])

        # --- mid-read kill --------------------------------------------
        chunks: list[bytes] = []
        for index, chunk in enumerate(fs.read_chunks("model/ckpt", version=3)):
            chunks.append(chunk)
            if index == 0:
                manager.fail_node(read_host)
        mid_read_ok = b"".join(chunks) == originals["model/ckpt@3"]

        # --- both machines come back; same-host restarts reconcile ----
        manager.recover_node(write_host)
        manager.recover_node(read_host)
        repaired_final = store.repair()
        audit = store.audit()

        corrupt = sorted(
            name
            for name, data in originals.items()
            if fs.read(name.split("@")[0], version=int(name.split("@")[1])) != data
        )
        files = {
            name: _bytes_digest(data) for name, data in sorted(originals.items())
        }
        return {
            "seed": seed,
            "datanodes": datanodes,
            "replicas": replicas,
            "victims": {
                "mid_write": {"datanode": victim_write.name, "node": write_host,
                              "deaths": victim_write.deaths.count},
                "mid_read": {"datanode": victim_read.name, "node": read_host,
                             "deaths": victim_read.deaths.count},
            },
            "results": {
                "versions": len(fs.versions("model/ckpt")),
                "mid_write_intact": mid_write_ok,
                "mid_read_intact": mid_read_ok,
                "repaired_initial": repaired_initial,
                "repaired_after_write": repaired_after_write,
                "repaired_final": repaired_final,
                "trash_pending_during_outage": trash_pending,
                "recoveries": manager.recoveries,
            },
            "audit": audit,
            "corrupt": corrupt,
            "faults_injected": plan.faults_injected(),
            "trace": {
                "faults": plan.trace(),
                # ... and the block store's placement/repair bookkeeping
                "counters": _trace_counters(registry, "repro_blockstore_", "repro_fs_"),
                "files": files,
            },
        }


def check(out: dict[str, Any]) -> list[str]:
    """Zero bytes lost: every chunk kept, every file and both kill reads intact."""
    return _failures({
        "lost chunks": out["audit"]["lost"],
        "under-replicated chunks": out["audit"]["under_replicated"],
        "corrupt files": out["corrupt"],
        "mid-write kill": not out["results"]["mid_write_intact"] and "version differs",
        "mid-read kill": not out["results"]["mid_read_intact"] and "read differs",
    })


def table(out: dict[str, Any]) -> str:
    audit, results, victims = out["audit"], out["results"], out["victims"]
    return "\n".join([
        f"store-kill scenario (seed {out['seed']}): {out['faults_injected']} faults injected",
        f"  mid-write kill: datanode {victims['mid_write']['datanode']} on "
        f"{victims['mid_write']['node']} (version intact: {results['mid_write_intact']})",
        f"  mid-read kill:  datanode {victims['mid_read']['datanode']} on "
        f"{victims['mid_read']['node']} (read intact: {results['mid_read_intact']})",
        f"  repair: {results['repaired_after_write']} copies after the write kill, "
        f"{results['repaired_final']} after recovery; "
        f"{audit['trash_reconciled']} stale chunks reconciled on rejoin",
        f"  dedup: {audit['logical_bytes']}B logical -> {audit['unique_bytes']}B unique "
        f"({audit['dedup_ratio']}x, {audit['dedup_hits']} chunk hits)",
        f"  audit: {audit['chunks']} chunks, lost {audit['lost']}, under-replicated "
        f"{audit['under_replicated']}, corrupt files {out['corrupt']}",
    ])
