"""Parameter-server serving-tier throughput: sharded vs single server.

Runs one seeded workload against ``ShardedParameterServer`` at shard
counts {1, 2, 4} (chunk replicas = min(2, shards), over as many
datanodes as shards):

1. **load** — put ``KEYS`` checkpoints (MLP-sized state dicts);
2. **serve** — ``GETS`` reads with a Zipf-like hot-key skew, the access
   pattern of collaborative tuning (everyone pulls the current best);
3. **failover** — kill shard ``ps-0`` *and* datanode ``dn-0``
   mid-serve (multi-shard runs only), finish the reads through the
   surviving shards and chunk replicas, and assert zero lost keys and
   a clean audit.

Writes a human-readable table to ``benchmarks/results/perf_ps.txt`` and
the machine-readable numbers to ``BENCH_ps.json`` at the repository
root. ``--smoke`` shrinks the workload to a few seconds for CI; the
committed baseline comes from a full run.

Usage::

    python benchmarks/bench_perf_ps.py [--smoke] [--seed N]
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
from repro.paramserver import ShardedParameterServer  # noqa: E402

BENCH_JSON = os.path.join(_ROOT, "BENCH_ps.json")
SHARD_COUNTS = (1, 2, 4)


def make_states(rng: np.ndarray, keys: int) -> list[dict]:
    """MLP-sized checkpoints: ~70KB each (two dense layers + biases)."""
    return [
        {
            "fc1/W": rng.standard_normal((64, 128)).astype(np.float32),
            "fc1/b": rng.standard_normal(128).astype(np.float32),
            "fc2/W": rng.standard_normal((128, 10)).astype(np.float32),
            "fc2/b": rng.standard_normal(10).astype(np.float32),
        }
        for _ in range(keys)
    ]


def zipfish_keys(rng, keys: int, gets: int) -> list[int]:
    """Hot-key skew: rank r is drawn proportionally to 1/(r+1)."""
    weights = 1.0 / np.arange(1, keys + 1)
    weights /= weights.sum()
    return list(rng.choice(keys, size=gets, p=weights))


def run_one(shards: int, keys: int, gets: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    replicas = min(2, shards)
    # The cache budget is deliberately smaller than the working set
    # (~70KB/key) so the hit rate reflects the LRU under hot-key skew
    # rather than saturating at 1.0.
    server = ShardedParameterServer(
        shards=shards, replicas=replicas, cache_bytes=4 * 1024 * 1024
    )
    states = make_states(rng, keys)

    start = time.perf_counter()
    for i, state in enumerate(states):
        server.put(f"ckpt/{i}", state, performance=float(i))
    put_seconds = time.perf_counter() - start

    reads = zipfish_keys(rng, keys, gets)
    start = time.perf_counter()
    for i in reads:
        server.get(f"ckpt/{i}")
    get_seconds = time.perf_counter() - start
    stats = server.cache_stats()

    result = {
        "shards": shards,
        "replicas": replicas,
        "keys": keys,
        "puts_per_s": round(keys / put_seconds, 1),
        "gets_per_s": round(gets / get_seconds, 1),
        "cache_hit_rate": round(stats["hit_rate"], 4),
    }

    if shards > 1:
        server.kill_shard("ps-0")
        server.block_store.kill_node("dn-0")
        failover_reads = zipfish_keys(rng, keys, gets // 2)
        start = time.perf_counter()
        for i in failover_reads:
            server.get(f"ckpt/{i}")
        failover_seconds = time.perf_counter() - start
        audit = server.audit()
        assert audit["keys_lost"] == 0, audit
        assert not audit["divergent"] and not audit["under_replicated"], audit
        result["gets_per_s_after_kill"] = round(
            len(failover_reads) / failover_seconds, 1
        )
        result["rereplications"] = audit["rereplications"]
        result["keys_lost_after_kill"] = audit["keys_lost"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny workload for CI (does not rewrite the "
                             "committed baseline)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    keys, gets = (40, 400) if args.smoke else (200, 4000)
    rows = [run_one(shards, keys, gets, args.seed) for shards in SHARD_COUNTS]

    header = (f"{'shards':>6} {'replicas':>8} {'puts/s':>10} {'gets/s':>10} "
              f"{'hit rate':>9} {'gets/s (1 dead)':>16} {'re-repl':>8}")
    lines = [header]
    for row in rows:
        lines.append(
            f"{row['shards']:>6} {row['replicas']:>8} {row['puts_per_s']:>10.1f} "
            f"{row['gets_per_s']:>10.1f} {row['cache_hit_rate']:>9.3f} "
            f"{row.get('gets_per_s_after_kill', float('nan')):>16.1f} "
            f"{row.get('rereplications', 0):>8}"
        )
    emit("perf_ps", "\n".join(lines))

    if not args.smoke:
        payload = {
            "workload": {"keys": keys, "gets": gets, "seed": args.seed,
                         "distribution": "zipf-like 1/(rank+1)"},
            "by_shards": {str(row["shards"]): row for row in rows},
        }
        with open(BENCH_JSON, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {BENCH_JSON}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
