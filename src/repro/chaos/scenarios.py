"""Seeded end-to-end chaos scenarios.

One function, :func:`run_chaos_scenario`, drives every instrumented
subsystem under one deterministic :class:`~repro.chaos.faults.FaultPlan`:

1. **tune over the cluster** — a distributed surrogate study survives
   two mid-study node failures, per-epoch trial crashes
   (``tune.trial``) restarted from checkpoints, and parameter-server
   pushes dropped with probability 0.1 behind a retry policy;
2. **serve** — the front end re-queues batches whose dispatch fails
   (``frontend.dispatch`` exceptions) and absorbs injected latency, with
   SLO accounting intact;
3. **the facade + gateway** — real models are trained and deployed,
   one replica is made to fail repeatedly (``serve.model.<name>``)
   until its circuit breaker drops it from the ensemble, the breaker
   re-admits it after the recovery window (on the injectable manual
   clock), and gateway requests absorb injected 503/504 failures.

Everything — fault decisions, retry jitter, model training — is a pure
function of the seed, so the returned *recovery trace* (the fault log
plus the retry/circuit counters) is bit-identical across runs with the
same seed. That property is what the chaos tests and the ``repro
chaos`` CLI command assert.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from repro import chaos, telemetry
from repro.chaos.faults import FaultKind, FaultPlan, FaultRule
from repro.exceptions import InjectedFault
from repro.utils.retry import RetryPolicy

__all__ = [
    "build_default_plan",
    "run_chaos_scenario",
    "run_shard_kill_scenario",
    "run_store_kill_scenario",
    "run_tenant_isolation_scenario",
    "same_seed_rerun",
]

#: counter prefixes that make up the trace's counter section — the
#: retry/recovery bookkeeping that must replay identically per seed.
TRACE_METRIC_PREFIXES = (
    "repro_chaos_",
    "repro_retry_",
    "repro_circuit_",
    "repro_tune_trial_crashes_total",
    "repro_tune_trials_reissued_total",
    "repro_serve_replica_errors_total",
    "repro_serve_frontend_dispatch_retries_total",
    "repro_cluster_recoveries_total",
    "repro_cluster_node_failures_total",
)


def build_default_plan(seed: int, flaky_model: str) -> FaultPlan:
    """The scenario's fault schedule: three kinds across four subsystems."""
    rules = [
        # tune: occasional per-epoch trial crashes, capped so the study
        # always terminates; workers restart from checkpoints.
        FaultRule("tune.trial", FaultKind.EXCEPTION, probability=0.02, max_faults=4),
        # paramserver: every push is dropped with p = 0.1; the server's
        # retry policy re-sends until it lands.
        FaultRule("paramserver.push", FaultKind.DROP, probability=0.1),
        # serve: dispatches gain latency sometimes and fail outright a
        # few times; the front end re-queues the in-flight requests.
        FaultRule("frontend.dispatch", FaultKind.LATENCY, probability=0.2, latency=0.02),
        FaultRule("frontend.dispatch", FaultKind.EXCEPTION, probability=0.05, max_faults=6),
        # one replica fails three times in a row, opening its breaker.
        FaultRule(f"serve.model.{flaky_model}", FaultKind.EXCEPTION, max_faults=3),
        # gateway: one backend crash (503) and one lost response (504).
        FaultRule("gateway.dispatch", FaultKind.EXCEPTION, after=2, max_faults=1),
        FaultRule("gateway.dispatch", FaultKind.DROP, after=4, max_faults=1),
    ]
    return FaultPlan(rules, seed=seed)


@contextmanager
def _sandbox(
    plan: FaultPlan,
) -> Iterator[tuple[telemetry.MetricsRegistry, telemetry.ManualClock]]:
    """Isolate one scenario run: yields its ``(registry, clock)``.

    Installs a fresh metrics registry, a manual telemetry clock and
    ``plan`` for the duration (previous globals restored on exit).
    Every id in a trace is issued by an object the scenario builds, so
    back-to-back runs with the same seed produce bit-identical traces
    whatever ran in the process before.
    """
    registry = telemetry.MetricsRegistry()
    clock = telemetry.ManualClock()
    previous_registry = telemetry.set_registry(registry)
    previous_clock = telemetry.set_clock(clock)
    previous_plan = chaos.set_plan(plan)
    try:
        yield registry, clock
    finally:
        chaos.set_plan(previous_plan)
        telemetry.set_clock(previous_clock)
        telemetry.set_registry(previous_registry)


def same_seed_rerun(
    run: Callable[[], dict[str, Any]], section: str = "trace"
) -> tuple[dict[str, Any], bool]:
    """Run a seeded callable twice; is ``section`` of both results identical?

    Returns the first result and the verdict — the determinism gate of
    the ``--verify`` CLI verbs and of the perf-bench runner.
    """
    first, again = run(), run()
    return first, first[section] == again[section]


def run_chaos_scenario(seed: int = 0) -> dict[str, Any]:
    """Run the full chaos scenario; return results plus the recovery trace."""
    from repro.zoo import default_registry

    flaky_model = default_registry().select_diverse("ImageClassification", k=2)[0].name
    plan = build_default_plan(seed, flaky_model)
    with _sandbox(plan) as (registry, clock):
        results = {
            "tune": _tune_phase(seed),
            "serve": _serve_phase(seed),
            "facade": _facade_phase(seed, clock, flaky_model),
        }
        trace = {
            "faults": plan.trace(),
            "counters": _trace_counters(registry),
        }
        return {
            "seed": seed,
            "flaky_model": flaky_model,
            "results": results,
            "points_hit": plan.points_hit(),
            "kinds_hit": plan.kinds_hit(),
            "faults_injected": plan.faults_injected(),
            "trace": trace,
        }


#: the shard-kill scenario's trace additionally replays the serving
#: tier's failover bookkeeping and the block store's repair bookkeeping.
SHARD_TRACE_METRIC_PREFIXES = TRACE_METRIC_PREFIXES + (
    "repro_paramserver_shard_deaths_total",
    "repro_paramserver_failovers_total",
    "repro_blockstore_",
)


def _state_digest(state) -> str:
    """Order-independent digest of one checkpoint's arrays."""
    import hashlib

    digest = hashlib.sha256()
    for name in sorted(state):
        value = state[name]
        digest.update(name.encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(value.dtype.str.encode("utf-8"))
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def reads_through_each_shard(server, key: str) -> dict[str, Any]:
    """``key`` as each live shard would serve it were it the only one up.

    Masks the other shards' liveness flags — their caches stay warm,
    the point being to catch a stale cached copy — reads through the
    coordinator, and restores them.
    """
    live = server.live_shards()
    answers = {}
    for shard in live:
        others = [s for s in live if s is not shard]
        for other in others:
            other.alive = False
        try:
            answers[shard.name] = server.get(key)
        finally:
            for other in others:
                other.alive = True
    return answers


def run_shard_kill_scenario(
    seed: int = 0, shards: int = 3, replicas: int = 2
) -> dict[str, Any]:
    """Kill a parameter shard's node mid-study; prove nothing is lost.

    A distributed surrogate study runs against a multi-shard
    :class:`~repro.paramserver.ParameterServer` whose
    shards *and* whose block store's datanodes are cluster containers,
    under dropped pushes and trial crashes. Mid-study, the node hosting
    the first shard fails — taking the shard, the datanode beside it
    (real bytes) and any co-located tune workers down. The cluster
    manager restarts both containers elsewhere: the shard comes back
    cold and serves its keys again, the block store re-replicates the
    dead datanode's chunks, and the study completes.

    The returned trace contains, besides the fault log and repair
    counters, a digest of every checkpoint read back through the
    coordinator *and* through every live shard — so the asserted
    properties are:

    * ``keys_lost == 0`` and no under-replicated or divergent keys
      after recovery (no lost checkpoints);
    * every shard's answer digests identically to the coordinator's
      (no stale checkpoints);
    * the whole trace is bit-identical across same-seed runs.
    """
    from repro.cluster import ClusterManager, Node
    from repro.cluster.node import Resources
    from repro.core.tune import (
        HyperConf,
        RandomSearchAdvisor,
        StudyMaster,
        SurrogateTrainer,
        section71_space,
    )
    from repro.core.tune.distributed import run_cluster_study
    from repro.data import DataStore
    from repro.paramserver import ParameterServer

    plan = FaultPlan(
        [
            FaultRule("paramserver.push", FaultKind.DROP, probability=0.05),
            FaultRule("tune.trial", FaultKind.EXCEPTION, probability=0.02,
                      max_faults=3),
        ],
        seed=seed,
    )
    with _sandbox(plan) as (registry, _clock):
        manager = ClusterManager()
        for i in range(max(3, shards)):
            manager.add_node(
                Node(f"n{i}", capacity=Resources(cpus=8, gpus=3, memory_gb=64))
            )
        param_server = ParameterServer(
            store=DataStore("ps-backing", nodes=shards, replicas=replicas),
            shards=shards,
            retry=RetryPolicy(
                max_attempts=4, jitter=0.0, retry_on=(InjectedFault,), seed=seed
            ),
        )
        # Register before the study so the placement is known and the
        # failure plan can target the node hosting the first shard.
        param_server.register_with_cluster(manager)
        param_server.block_store.register_with_cluster(manager)
        # Pre-seed the data plane with prior studies' checkpoints (the
        # warm-start pool of Section 4.2) so the killed shard holds
        # real data whose survival the trace can assert.
        pool_rng = np.random.default_rng(seed)
        for i in range(12):
            param_server.put(
                f"warm/{i}",
                {"w": pool_rng.standard_normal((16, 16)),
                 "b": pool_rng.standard_normal(16)},
                model=f"m{i % 3}", dataset="prior",
                performance=float(pool_rng.random()),
            )
        victim_shard = param_server.shards[0]
        victim_node = victim_shard.node_name
        victim_datanodes = [
            n.name for n in param_server.block_store.nodes
            if n.node_name == victim_node
        ]
        conf = HyperConf(max_trials=16, max_epochs_per_trial=20)
        master = StudyMaster(
            "shard-kill",
            conf,
            RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(seed)),
            param_server,
        )
        report = run_cluster_study(
            manager,
            master,
            SurrogateTrainer(seed=seed),
            param_server,
            conf,
            num_workers=3,
            failure_plan=[(150.0, victim_node, None)],
            trial_retry=RetryPolicy(max_attempts=3, jitter=0.0, seed=seed),
        )
        param_server.repair()
        audit = param_server.audit()
        # Read every checkpoint back through the coordinator and through
        # each live shard; identical digests mean no shard can ever
        # serve a stale copy.
        checkpoints: dict[str, str] = {}
        stale: list[str] = []
        for key in param_server.keys():
            digest = _state_digest(param_server.get(key))
            checkpoints[key] = digest
            for name, state in reads_through_each_shard(param_server, key).items():
                if _state_digest(state) != digest:
                    stale.append(f"{key}@{name}")
        best = report.best
        return {
            "seed": seed,
            "shards": shards,
            "replicas": replicas,
            "victim": {"shard": victim_shard.name, "node": victim_node,
                       "deaths": victim_shard.deaths,
                       "datanodes": victim_datanodes},
            "results": {
                "trials": len(report.results),
                "total_epochs": report.total_epochs,
                "best_performance": report.best_performance,
                "best_trial_id": best.trial.trial_id if best is not None else None,
                "recoveries": manager.recoveries,
                "wall_time": report.wall_time,
            },
            "audit": audit,
            "stale": stale,
            "faults_injected": plan.faults_injected(),
            "trace": {
                "faults": plan.trace(),
                "counters": _trace_counters(registry, SHARD_TRACE_METRIC_PREFIXES),
                "checkpoints": checkpoints,
            },
        }


#: the store-kill scenario's trace additionally replays the block
#: store's placement/repair bookkeeping.
STORE_TRACE_METRIC_PREFIXES = TRACE_METRIC_PREFIXES + (
    "repro_blockstore_",
    "repro_fs_",
)


def run_store_kill_scenario(
    seed: int = 0, datanodes: int = 3, replicas: int = 2
) -> dict[str, Any]:
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
    digests) is bit-identical across same-seed runs, and the asserted
    properties are: no lost chunks, no under-replicated chunks, trash
    reconciled on rejoin, every file version read back bit-identical.
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
                              "deaths": victim_write.deaths},
                "mid_read": {"datanode": victim_read.name, "node": read_host,
                             "deaths": victim_read.deaths},
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
                "counters": _trace_counters(registry, STORE_TRACE_METRIC_PREFIXES),
                "files": files,
            },
        }


#: the tenant-isolation scenario's trace additionally replays the
#: quota/fair-share bookkeeping and the tenant-labelled serve counters.
TENANT_TRACE_METRIC_PREFIXES = TRACE_METRIC_PREFIXES + (
    "repro_tenant_",
    "repro_cluster_jobs_queued_total",
    "repro_cluster_pending_jobs",
    "repro_serve_frontend_",
)


def run_tenant_isolation_scenario(seed: int = 0) -> dict[str, Any]:
    """A noisy tenant floods and crash-loops; a quiet tenant is unharmed.

    Two tenants share one control plane and one serving front end:

    1. **cluster phase** — tenant A (quota: 8 concurrent trials) floods
       the cluster with training jobs until both its quota and the
       cluster's capacity are exhausted, then crash-loops the node its
       first job runs on (three fail/recover cycles). Tenant B's jobs
       place throughout; when A releases capacity, the pending queue
       drains **max-min fair** — B's queued job (lower dominant share)
       activates before A's earlier-queued ones.
    2. **serve phase** — both tenants drive open-loop load at one
       admission-controlled front end; A offers ~4x B's rate *and*
       suffers injected admission faults on its tenant-targeted chaos
       point (``frontend.accept.tenant.tenant-a``). A's aggregate is
       clamped by its tenant token bucket and queue-share cap, so the
       isolation gate holds: **zero** tenant-B sheds and tenant-B p99
       within ``2 * tau``.

    Everything is a pure function of the seed, so the returned trace
    (fault log, quota/fair-share counters, the serve trace fingerprint)
    is bit-identical across same-seed runs.
    """
    from repro.cluster import ClusterManager, Node
    from repro.cluster.manager import JobKind, JobState
    from repro.cluster.node import Resources
    from repro.core.serve.frontend import FrontendConfig, ServeFrontend
    from repro.core.serve.loadgen import LoadGenConfig, ReplicaPool, run_multi_load
    from repro.tenancy import TenantQuota, TenantRegistry

    plan = FaultPlan(
        [
            # Admission faults aimed at tenant A only: the tenant-scoped
            # chaos point fires after the generic frontend.accept one,
            # so B's admissions never see these.
            FaultRule(
                "frontend.accept.tenant.tenant-a",
                FaultKind.EXCEPTION,
                probability=0.05,
                max_faults=25,
            ),
        ],
        seed=seed,
    )
    with _sandbox(plan) as (registry, _clock):
        # -- cluster phase: quotas, flood, crash-loop, fair drain ------
        tenants = TenantRegistry()
        tenants.register("tenant-a", quota=TenantQuota(trials=8))
        tenants.register("tenant-b")
        manager = ClusterManager(tenants=tenants)
        for i in range(3):
            manager.add_node(
                Node(f"n{i}", capacity=Resources(cpus=8, gpus=3, memory_gb=64))
            )
        # A floods: two jobs place (6 of 8 quota trials), the third
        # trips the quota and queues.
        a1 = manager.submit_job(JobKind.TRAIN, "a1", num_workers=3, tenant="tenant-a")
        a2 = manager.submit_job(JobKind.TRAIN, "a2", num_workers=3, tenant="tenant-a")
        a3 = manager.submit_job(JobKind.TRAIN, "a3", num_workers=3, tenant="tenant-a")
        # B places immediately despite the flood (capacity remains
        # because A's quota capped it)...
        b1 = manager.submit_job(JobKind.TRAIN, "b1", num_workers=2, tenant="tenant-b")
        # ...then queues one more on capacity, as does A again.
        b2 = manager.submit_job(JobKind.TRAIN, "b2", num_workers=3, tenant="tenant-b")
        a4 = manager.submit_job(JobKind.TRAIN, "a4", num_workers=3, tenant="tenant-a")
        flood_states = {
            job.name: job.state.name for job in (a1, a2, a3, b1, b2, a4)
        }
        # A crash-loops its first job's node; B's containers live
        # elsewhere and are untouched.
        crash_host = a1.containers[0].node_name
        for _ in range(3):
            manager.fail_node(crash_host)
            manager.recover_node(crash_host)
        b1_survived = b1.state is JobState.RUNNING and all(
            c.running for c in b1.containers
        )
        # A releases capacity; the pending queue drains max-min fair:
        # B's queued job (lower dominant share) activates first even
        # though A's quota-queued job arrived earlier.
        manager.stop_job(a1.job_id)
        drain_states = {
            job.name: job.state.name for job in (a3, b2, a4)
        }
        cluster = {
            "flood_states": flood_states,
            "crash_host": crash_host,
            "crash_cycles": 3,
            "b1_survived_crash_loop": b1_survived,
            "drain_states": drain_states,
            "fair_share_winner": (
                "tenant-b" if b2.state is JobState.RUNNING else b2.state.name
            ),
            "a_pending_after_drain": sum(
                1 for job in manager.pending_jobs() if job.tenant == "tenant-a"
            ),
            "recoveries": manager.recoveries,
            "usage": tenants.ledger.snapshot(),
        }

        # -- serve phase: A floods one front end, B stays in SLO -------
        tau = 0.2
        latency = lambda b: 0.05 + 0.002 * b  # noqa: E731
        frontend = ServeFrontend(
            FrontendConfig(
                latency=latency,
                tau=tau,
                max_queue=256,
                tenant_rate_limits={"tenant-a": 80.0},
                tenant_max_queue_share=0.5,
            )
        )
        pool = ReplicaPool(latency, replicas=2)
        trace = run_multi_load(
            frontend,
            pool,
            [
                LoadGenConfig(
                    mode="open", target_rate=320.0, period=20.0,
                    duration=30.0, seed=seed, tenant="tenant-a",
                ),
                LoadGenConfig(
                    mode="open", target_rate=40.0, period=20.0,
                    duration=30.0, seed=seed + 1, tenant="tenant-b",
                ),
            ],
        )
        a_summary = trace.summary("tenant-a")
        b_summary = trace.summary("tenant-b")
        isolation = {
            "tau": tau,
            "b_shed": b_summary["shed"],
            "b_p99_s": b_summary["p99_s"],
            "zero_b_sheds": b_summary["shed"] == 0,
            "b_p99_within_2tau": b_summary["p99_s"] <= 2.0 * tau,
            "a_shed_rate": a_summary["shed_rate"],
        }
        return {
            "seed": seed,
            "results": {
                "cluster": cluster,
                "serve": {"tenant-a": a_summary, "tenant-b": b_summary},
                "isolation": isolation,
            },
            "points_hit": plan.points_hit(),
            "kinds_hit": plan.kinds_hit(),
            "faults_injected": plan.faults_injected(),
            "trace": {
                "faults": plan.trace(),
                "counters": _trace_counters(registry, TENANT_TRACE_METRIC_PREFIXES),
                "serve_fingerprint": trace.fingerprint(),
            },
        }


def _bytes_digest(data: bytes) -> str:
    """sha256 hexdigest of a byte string (file identity in traces)."""
    import hashlib

    return hashlib.sha256(data).hexdigest()


def _trace_counters(
    registry: telemetry.MetricsRegistry,
    prefixes: tuple[str, ...] = TRACE_METRIC_PREFIXES,
) -> dict[str, Any]:
    """The retry/recovery counter values, filtered from a full snapshot."""
    full = telemetry.snapshot(registry)
    return {
        name: data["values"]
        for section in ("counters", "gauges")
        for name, data in sorted(full.get(section, {}).items())
        if any(name.startswith(prefix) for prefix in prefixes)
    }


def _tune_phase(seed: int) -> dict[str, Any]:
    """Distributed study under node failures, trial crashes, dropped pushes."""
    from repro.cluster import ClusterManager, Node
    from repro.cluster.node import Resources
    from repro.core.tune import (
        HyperConf,
        RandomSearchAdvisor,
        StudyMaster,
        SurrogateTrainer,
        section71_space,
    )
    from repro.core.tune.distributed import run_cluster_study
    from repro.paramserver import ParameterServer

    manager = ClusterManager()
    for i in range(3):
        manager.add_node(
            Node(f"n{i}", capacity=Resources(cpus=8, gpus=3, memory_gb=64))
        )
    param_server = ParameterServer(
        retry=RetryPolicy(
            max_attempts=4, jitter=0.0, retry_on=(InjectedFault,), seed=seed
        )
    )
    conf = HyperConf(max_trials=16, max_epochs_per_trial=20)
    master = StudyMaster(
        "chaos",
        conf,
        RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(seed)),
        param_server,
    )
    report = run_cluster_study(
        manager,
        master,
        SurrogateTrainer(seed=seed),
        param_server,
        conf,
        num_workers=3,
        failure_plan=[(150.0, "n0", 900.0), (400.0, "n1", None)],
        trial_retry=RetryPolicy(max_attempts=3, jitter=0.0, seed=seed),
    )
    best = report.best
    reissued = telemetry.get_registry().counter(
        "repro_tune_trials_reissued_total",
        "In-flight trials re-issued to replacement workers.",
    )
    return {
        "trials": len(report.results),
        "total_epochs": report.total_epochs,
        "best_performance": report.best_performance,
        "best_trial_id": best.trial.trial_id if best is not None else None,
        "recoveries": manager.recoveries,
        "reissued": int(sum(reissued.snapshot().values())),
        "wall_time": report.wall_time,
    }


def _serve_phase(seed: int) -> dict[str, Any]:
    """Serving run with failed/slowed dispatches and batch resubmission."""
    from repro.core.serve import (
        FrontendConfig,
        GreedySingleController,
        LoadGenConfig,
        ReplicaPool,
        ServeFrontend,
        run_load,
    )
    from repro.zoo import get_profile

    profile = get_profile("inception_v3")
    config = FrontendConfig(
        latency=profile.inference_time,
        dispatch_retry=RetryPolicy(
            max_attempts=4, base_delay=0.005, max_delay=0.1, jitter=0.0, seed=seed
        ),
    )
    policy = GreedySingleController(profile, config.batch_sizes, config.tau)
    summary = run_load(
        ServeFrontend(config, policy=policy),
        ReplicaPool(profile.inference_time),
        LoadGenConfig(target_rate=80.0, duration=30.0, span=0.1, seed=seed),
    ).summary()
    retried = telemetry.get_registry().counter(
        "repro_serve_frontend_dispatch_retries_total"
    )
    return {
        "arrived": summary["offered"],
        "served": summary["served"],
        "dropped": summary["shed"],
        "requeued": int(retried.value()),
        "slo_fraction": 1.0 - summary["slo_miss_rate"],
    }


def _facade_phase(seed: int, clock, flaky_model: str) -> dict[str, Any]:
    """Train/deploy real models; flap one replica; hit the gateway.

    The flaky replica's circuit breaker opens after three consecutive
    injected failures (dropping it from the ensemble vote) and, once the
    manual clock advances past the recovery window, re-admits it on a
    successful half-open probe.
    """
    from repro.api.gateway import Gateway
    from repro.core.system import Rafiki
    from repro.core.tune import HyperConf
    from repro.data import make_image_classification

    dataset = make_image_classification(
        name="chaos-ds", num_classes=3, image_shape=(3, 8, 8),
        train_per_class=12, val_per_class=6, test_per_class=6,
        difficulty=0.3, seed=seed,
    )
    system = Rafiki(seed=seed)
    # The facade's parameter server must survive the dropped-push rule.
    system.param_server.retry = RetryPolicy(
        max_attempts=4, jitter=0.0, retry_on=(InjectedFault,), seed=seed
    )
    system.import_images(dataset)
    job_id = system.create_train_job(
        "chaos", "ImageClassification", "chaos-ds",
        hyper=HyperConf(max_trials=2, max_epochs_per_trial=3),
        num_workers=2,
    )
    specs = system.get_models(job_id)
    infer_id = system.create_inference_job(specs)
    info = system.get_inference_job(infer_id)
    gateway = Gateway(system)

    statuses: list[int] = []
    for i in range(6):
        response = gateway.handle(
            "POST", f"/query/{infer_id}", {"img": dataset.test_x[i].tolist()}
        )
        statuses.append(response.status)
    live_during_outage = len(info.live_replicas())
    flaky_breaker = next(
        (b for b in info.breakers if b.name.endswith(f"/{flaky_model}")), None
    )
    # Let the breaker's recovery window elapse, then probe it closed.
    clock.advance(31.0)
    for i in range(2):
        response = gateway.handle(
            "POST", f"/query/{infer_id}", {"img": dataset.test_x[6 + i].tolist()}
        )
        statuses.append(response.status)
    return {
        "models": [spec.model_name for spec in specs],
        "statuses": statuses,
        "live_during_outage": live_during_outage,
        "live_after_recovery": len(info.live_replicas()),
        "breaker_opened": flaky_breaker.opened_count if flaky_breaker else 0,
        "breaker_state": flaky_breaker.state if flaky_breaker else "missing",
    }
