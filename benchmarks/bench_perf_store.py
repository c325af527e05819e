"""Block-store throughput, checkpoint dedup, and mid-write durability.

Three phases against the chunked, content-addressable, replicated
:class:`~repro.data.blockstore.BlockStore`:

1. **throughput** — put/get MB/s through a
   :class:`~repro.data.fs.FileNamespace` at R ∈ {1, 2, 3} (64KB chunks,
   1MB files), reads round-robining the whole working set;
2. **dedup** — a 10-checkpoint study of one model pushed through a
   ``ShardedParameterServer`` (3 shards) over a 3-node, 2-replica
   block store: each checkpoint is written once, successive
   checkpoints are near-duplicates, so content addressing must
   collapse them — the run *gates* ``dedup_ratio > 2`` (an acceptance
   criterion, not just a report);
3. **zero-bytes-lost** — a datanode is killed between two chunk
   uploads of a write; the commit-time heal plus repair must leave
   every file bit-identical, zero lost chunks — and the whole recovery,
   run twice with one seed, must produce bit-identical audits
   (determinism gate).

``--smoke`` runs phases 2 and 3 as CI gates (correctness only, no JSON
rewrite); a full run also writes ``BENCH_store.json`` at the repository
root with the throughput table.

Usage::

    python benchmarks/bench_perf_store.py [--smoke] [--seed N]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
sys.path.insert(0, _HERE)
sys.path.insert(0, os.path.join(_ROOT, "src"))

import numpy as np  # noqa: E402

from _harness import emit  # noqa: E402
from repro.data.blockstore import BlockStore  # noqa: E402
from repro.data.fs import FileNamespace  # noqa: E402
from repro.paramserver import ShardedParameterServer  # noqa: E402

BENCH_JSON = os.path.join(_ROOT, "BENCH_store.json")
REPLICA_FACTORS = (1, 2, 3)


def bench_throughput(replicas: int, files: int, file_bytes: int, seed: int) -> dict:
    """Put/get MB/s through the namespace at one replication factor."""
    rng = np.random.default_rng(seed)
    store = BlockStore(nodes=3, replicas=replicas, chunk_size=64 * 1024)
    fs = FileNamespace(store)
    payloads = [
        rng.integers(0, 256, file_bytes, dtype=np.uint8).tobytes()
        for _ in range(files)
    ]

    start = time.perf_counter()
    for i, data in enumerate(payloads):
        fs.write(f"f/{i}", data)
    put_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for i, data in enumerate(payloads):
        assert fs.read(f"f/{i}") == data
    get_seconds = time.perf_counter() - start

    total_mb = files * file_bytes / 1e6
    return {
        "replicas": replicas,
        "files": files,
        "file_bytes": file_bytes,
        "put_mb_per_s": round(total_mb / put_seconds, 1),
        "get_mb_per_s": round(total_mb / get_seconds, 1),
    }


def bench_dedup(checkpoints: int, seed: int) -> dict:
    """The acceptance study: PS history dedup across N checkpoints.

    One model trains for N steps; each step perturbs a slice of the
    weights and pushes the full state dict. Every checkpoint is one
    logical copy (the store, not the parameter server, replicates it)
    — content addressing must store the unchanged chunks once.
    """
    rng = np.random.default_rng(seed)
    sps = ShardedParameterServer(
        shards=3, replicas=2,
        block_store=BlockStore(nodes=3, replicas=2, chunk_size=4096),
    )
    state = {
        "fc1/W": rng.standard_normal((64, 128)).astype(np.float32),
        "fc1/b": rng.standard_normal(128).astype(np.float32),
        "fc2/W": rng.standard_normal((128, 10)).astype(np.float32),
        "fc2/b": rng.standard_normal(10).astype(np.float32),
    }
    for step in range(checkpoints):
        state["fc1/W"][step % 64, : 8] += 0.01  # a gradient step's dirty slice
        sps.put("study/best", {k: v.copy() for k, v in state.items()},
                performance=float(step))
    audit = sps.block_store.audit()
    restored = sps.get("study/best")
    assert all(np.array_equal(restored[k], state[k]) for k in state)
    assert audit["dedup_ratio"] > 2.0, (
        f"dedup gate failed: {audit['dedup_ratio']}x <= 2x over "
        f"{checkpoints} checkpoints"
    )
    return {
        "checkpoints": checkpoints,
        "shards": 3,
        "chunk_replicas": sps.replicas,
        "logical_bytes": audit["logical_bytes"],
        "unique_bytes": audit["unique_bytes"],
        "dedup_ratio": audit["dedup_ratio"],
        "dedup_hits": audit["dedup_hits"],
    }


def bench_kill(files: int, file_bytes: int, seed: int) -> dict:
    """Mid-write node kill: zero bytes lost, deterministic recovery."""

    def run_once() -> tuple[dict, dict]:
        rng = np.random.default_rng(seed)
        store = BlockStore(nodes=3, replicas=2, chunk_size=16 * 1024)
        fs = FileNamespace(store)
        payloads = {
            f"f/{i}": rng.integers(0, 256, file_bytes, dtype=np.uint8).tobytes()
            for i in range(files)
        }
        for path, data in list(payloads.items())[:-1]:
            fs.write(path, data)
        last_path, last_data = list(payloads.items())[-1]

        def kill(index: int, digest: str) -> None:
            if index == 1:
                store.kill_node("dn-0")

        fs.write(last_path, last_data, on_chunk=kill)
        store.repair()
        lost_bytes = sum(
            len(data) for path, data in payloads.items() if fs.read(path) != data
        )
        audit = store.audit()
        return audit, {"lost_bytes": lost_bytes, "audit": audit}

    first_audit, first = run_once()
    second_audit, _ = run_once()
    assert first["lost_bytes"] == 0, f"{first['lost_bytes']} bytes lost"
    assert first_audit["lost"] == [], first_audit
    assert first_audit["under_replicated"] == [], first_audit
    assert json.dumps(first_audit, sort_keys=True) == json.dumps(
        second_audit, sort_keys=True
    ), "recovery audit differs across same-seed runs"
    return {
        "files": files,
        "file_bytes": file_bytes,
        "lost_bytes": 0,
        "rereplications": first_audit["rereplications"],
        "deterministic": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: run the dedup and zero-bytes-lost "
                             "gates on a small workload; perf numbers are "
                             "informational and the committed baseline is "
                             "not rewritten")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    files, file_bytes = (4, 256 * 1024) if args.smoke else (16, 1024 * 1024)
    checkpoints = 10  # fixed: the acceptance criterion's study size

    rows = [
        bench_throughput(replicas, files, file_bytes, args.seed)
        for replicas in REPLICA_FACTORS
    ]
    dedup = bench_dedup(checkpoints, args.seed)
    kill = bench_kill(max(3, files // 4), file_bytes, args.seed)

    lines = [f"{'R':>3} {'files':>6} {'put MB/s':>10} {'get MB/s':>10}"]
    for row in rows:
        lines.append(
            f"{row['replicas']:>3} {row['files']:>6} "
            f"{row['put_mb_per_s']:>10.1f} {row['get_mb_per_s']:>10.1f}"
        )
    lines.append(
        f"dedup: {dedup['checkpoints']} checkpoints, "
        f"{dedup['chunk_replicas']} chunk replicas -> {dedup['dedup_ratio']}x "
        f"({dedup['logical_bytes']}B logical / {dedup['unique_bytes']}B unique)"
    )
    lines.append(
        f"mid-write kill: {kill['lost_bytes']} bytes lost, "
        f"{kill['rereplications']} re-replications, "
        f"deterministic={kill['deterministic']}"
    )
    emit("perf_store", "\n".join(lines))

    if not args.smoke:
        payload = {
            "workload": {"files": files, "file_bytes": file_bytes,
                         "seed": args.seed},
            "throughput_by_replicas": {str(r["replicas"]): r for r in rows},
            "dedup": dedup,
            "mid_write_kill": kill,
        }
        with open(BENCH_JSON, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {BENCH_JSON}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
