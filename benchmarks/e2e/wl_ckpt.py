"""``ckpt_store``: checkpoint writes beside reads on the storage layers.

``ShardedParameterServer(shards=4, replicas=2)`` over one
``BlockStore(nodes=3, replicas=2, 64 KiB chunks)`` with an 8 MiB hot
cache: 24 keys take turns receiving a new near-duplicate 1 MiB version
(a training step dirties a 1 KiB slice), and each put is followed by
three gets of other keys. The operation is a put; alt is a get. A key
that reaches 16 versions is deleted and starts over, which bounds memory
and keeps refcounted chunk GC in the loop. These are the two layers the
replication-substrate item will merge, so writes and reads are measured
side by side on both.
"""

from __future__ import annotations

import time

import numpy as np

from repro.data import DataStore
from repro.data.blockstore import BlockStore
from repro.paramserver import ShardedParameterServer
from repro.tenancy import tenant_context

import harness

_perf = time.perf_counter

KEYS = 24
VERSION_CAP = 16
GETS_PER_PUT = 3
SLICE = 256  # float32 values a training step dirties: 1 KiB
SHAPES = {"conv/W": (64, 1024), "fc1/W": (512, 256), "fc2/W": (240, 256),
          "fc2/b": (4096,)}  # 262144 float32 = 1 MiB
STEPS_PER_S = 150.0


class CheckpointWorkload(harness.Workload):
    #: puts and gets stream 1 MiB buffers (hash, split, copy, pickle): the
    #: phase follows the unit's memory part far more than its compute part.
    MEM_SHARE = 0.75

    def __init__(self, name: str, seed: int, seconds: float):
        super().__init__(name, seed, seconds)
        self.steps = max(8, round(STEPS_PER_S * seconds))
        self.prefill = 2 if seconds < 1.0 else 12

    # -- set-up ---------------------------------------------------------

    def setup(self, clock, tracer) -> None:
        self.clock, self.tracer = clock, tracer
        tenants = harness.tenant_registry()
        self.blocks = blocks = BlockStore(nodes=3, replicas=2, chunk_size=64 * 1024)
        self.stores = []

        def store_factory(shard: str) -> DataStore:
            store = DataStore(f"ps-backing-{shard}", block_store=blocks, tenants=tenants)
            self.stores.append(store)
            return store

        self.server = ShardedParameterServer(
            shards=4, replicas=2, cache_bytes=8 * 1024 * 1024,
            store_factory=store_factory, block_store=blocks,
        )
        if tracer is not None:
            harness.trace_param_server(tracer, self.server)
            for store in self.stores:
                harness.trace_store(tracer, store)
            harness.trace_tenants(tracer, tenants)
        rng = np.random.default_rng(self.seed)
        self.rng = rng
        self.state = [
            {name: rng.standard_normal(shape).astype(np.float32)
             for name, shape in SHAPES.items()}
            for _ in range(KEYS)
        ]
        self.versions = [0] * KEYS
        self.step = 0
        scratch = harness.Outcome()
        for _ in range(self.prefill):
            clock.lap("prefill")
            for key in range(KEYS):
                self._put(key)
        clock.lap("read-back")
        for key in range(KEYS):
            self._check(key, self.server.get(f"model-{key}/best"), scratch)
        if not scratch.correct:
            raise RuntimeError("ckpt_store: pre-populated state does not read back")

    # -- operations -------------------------------------------------------

    def _dirty(self, key: int) -> dict[str, np.ndarray]:
        """The next training step of ``key``: one small slice moves."""
        state = self.state[key]
        name = ("conv/W", "fc1/W", "fc2/W")[self.step % 3]
        flat = state[name].reshape(-1)
        offset = (self.step * 7919 * SLICE) % (flat.size - SLICE)
        flat[offset:offset + SLICE] += np.float32(0.01)
        self.step += 1
        return state

    def _put(self, key: int) -> None:
        state = self._dirty(key)
        with tenant_context(harness.TENANTS[key % 3]):
            entry = self.server.put(f"model-{key}/best", state, model=f"model-{key}",
                                    dataset="food", performance=self.step / 1e6)
        self.versions[key] += 1
        if entry.version != self.versions[key]:
            raise RuntimeError(f"model-{key}: version {entry.version} != "
                               f"{self.versions[key]}")

    def _delete(self, key: int) -> None:
        """Retire a full key: timed as its own phase, outside put and get."""
        if self.tracer is not None:
            self.tracer.enter("delete", timed=False)
        self.clock.begin("delete")
        with tenant_context(harness.TENANTS[key % 3]):
            self.server.delete(f"model-{key}/best")
        self.clock.end()
        self.versions[key] = 0
        if self.tracer is not None:
            self.tracer.enter("primary", timed=True)

    def _check(self, key: int, got, outcome) -> None:
        want = self.state[key]
        same = got.keys() == want.keys() and all(
            np.array_equal(got[name], want[name]) for name in want)
        outcome.oracle("get_equals_last_put", not same)

    def run(self, outcome, primary: str, alt: str) -> None:
        clock, tracer = self.clock, self.tracer
        if tracer is not None:
            tracer.enter("primary", timed=True)
        order = self.rng.permutation(KEYS)
        for step in range(self.steps):
            key = int(order[step % KEYS])
            if self.versions[key] >= VERSION_CAP:
                self._delete(key)
            segment = clock.begin(primary)
            start = _perf()
            self._put(key)
            segment.latencies.append(_perf() - start)
            segment.ops = 1
            clock.end()
            readers = [int(order[(step + 1 + 7 * i) % KEYS]) for i in range(GETS_PER_PUT)]
            segment = clock.begin(alt)
            start = _perf()
            got = [self.server.get(f"model-{k}/best") for k in readers]
            segment.latencies.append((_perf() - start) / GETS_PER_PUT)
            segment.ops = GETS_PER_PUT
            clock.end()
            for k, state in zip(readers, got):
                self._check(k, state, outcome)
        outcome.attempt(primary, self.steps)
        outcome.attempt(alt, self.steps * GETS_PER_PUT)

    def verify(self, outcome) -> None:
        for key in range(KEYS):
            got = self.server.get(f"model-{key}/best")
            self._check(key, got, outcome)
            outcome.record(*(got[name] for name in SHAPES), self.versions[key])
        ps_audit = self.server.audit()
        outcome.oracle("ps_audit_clean", bool(
            ps_audit["keys_lost"] or ps_audit["under_replicated"]
            or ps_audit["divergent"] or ps_audit["keys"] != KEYS))
        block_audit = self.blocks.audit()
        outcome.oracle("blockstore_audit_clean",
                       bool(block_audit["lost"] or block_audit["under_replicated"]))
        outcome.record(ps_audit["keys"], block_audit["chunks"])

    # -- per-layer numbers ------------------------------------------------

    def layers(self, tracer) -> dict[str, float]:
        timed = harness.TIMED
        return {
            **harness.tenancy_layers(tracer),
            **harness.storage_layers(tracer, self.server, self.blocks,
                                     timed + ("delete",)),
        }
