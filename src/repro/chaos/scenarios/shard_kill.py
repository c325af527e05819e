"""The shard-kill scenario: a parameter shard's node dies mid-study."""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.chaos.faults import FaultKind, FaultPlan, FaultRule
from repro.chaos.scenarios._core import (
    _cluster,
    _failures,
    _push_retry,
    _sandbox,
    _state_digest,
    _surrogate_study,
    _trace_counters,
)


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


def run(seed: int = 0, shards: int = 3, replicas: int = 2) -> dict[str, Any]:
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
    coordinator; ``stale`` lists every live shard whose answer digests
    differently. :func:`check` is the verdict.
    """
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
        manager = _cluster(max(3, shards))
        param_server = ParameterServer(
            store=DataStore("ps-backing", nodes=shards, replicas=replicas),
            shards=shards,
            retry=_push_retry(seed),
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
        report = _surrogate_study(
            "shard-kill", seed, manager, param_server,
            failure_plan=[(150.0, victim_node, None)],
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
                       "deaths": victim_shard.deaths.count,
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
                # ... and the serving tier's failover, the block store's repair
                "counters": _trace_counters(
                    registry, "repro_paramserver_shard_deaths_total",
                    "repro_paramserver_failovers_total", "repro_blockstore_",
                ),
                "checkpoints": checkpoints,
            },
        }


def check(out: dict[str, Any]) -> list[str]:
    """No checkpoint lost, short of its factor, divergent or served stale."""
    return _failures({
        "keys lost": out["audit"]["keys_lost"],
        "under-replicated keys": out["audit"]["under_replicated"],
        "divergent keys": out["audit"]["divergent"],
        "stale reads": out["stale"],
    })


def table(out: dict[str, Any]) -> str:
    victim, results, audit = out["victim"], out["results"], out["audit"]
    return "\n".join([
        f"shard-kill scenario (seed {out['seed']}): {out['faults_injected']} faults injected",
        f"  victim: shard {victim['shard']} on {victim['node']} beside datanodes "
        f"{victim['datanodes']}, {victim['deaths']} death(s)",
        f"  study:  {results['trials']} trials, best {results['best_performance']:.4f} "
        f"(trial {results['best_trial_id']}), {results['recoveries']} container recoveries",
        f"  audit:  {audit['keys']} keys, lost {audit['keys_lost']}, under-replicated "
        f"{audit['under_replicated']}, divergent {audit['divergent']}, stale "
        f"{out['stale']}; {audit['rereplications']} chunk copies re-replicated",
    ])
