"""The tenant-isolation scenario: a noisy tenant beside a quiet one."""

from __future__ import annotations

from typing import Any

from repro.chaos.faults import FaultKind, FaultPlan, FaultRule
from repro.chaos.scenarios._core import (
    _cluster,
    _failures,
    _sandbox,
    _trace_counters,
)


def run(seed: int = 0) -> dict[str, Any]:
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
    from repro.cluster.manager import JobKind, JobState
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
        manager = _cluster(tenants=tenants)
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
                # ... and the quota/fair-share bookkeeping, the
                # tenant-labelled serve counters
                "counters": _trace_counters(
                    registry, "repro_tenant_", "repro_cluster_jobs_queued_total",
                    "repro_cluster_pending_jobs", "repro_serve_frontend_",
                ),
                "serve_fingerprint": trace.fingerprint(),
            },
        }


def check(out: dict[str, Any]) -> list[str]:
    """The isolation gate: the noisy tenant costs the quiet one nothing."""
    cluster, isolation = out["results"]["cluster"], out["results"]["isolation"]
    p99_ms, bound_ms = isolation["b_p99_s"] * 1000, 2 * isolation["tau"] * 1000
    return _failures({
        "tenant-b job b1 in tenant-a's crash loop":
            not cluster["b1_survived_crash_loop"] and "lost",
        "fair drain, tenant-b job b2":
            cluster["fair_share_winner"] != "tenant-b" and cluster["fair_share_winner"],
        "tenant-b requests shed": isolation["b_shed"],
        "tenant-b p99 over 2*tau": p99_ms > bound_ms and f"{p99_ms:.0f}ms > {bound_ms:.0f}ms",
    })


def table(out: dict[str, Any]) -> str:
    cluster, isolation = out["results"]["cluster"], out["results"]["isolation"]
    serve_a, serve_b = (out["results"]["serve"][t] for t in ("tenant-a", "tenant-b"))
    return "\n".join([
        f"tenant isolation (seed {out['seed']}): "
        f"{out['faults_injected']} admission faults aimed at tenant-a",
        f"cluster: flood {cluster['flood_states']}; "
        f"{cluster['crash_cycles']} crash cycles on {cluster['crash_host']}; "
        f"B survived: {cluster['b1_survived_crash_loop']}; "
        f"fair drain winner: {cluster['fair_share_winner']}",
        f"serve:   A offered {serve_a['offered']} (shed rate {serve_a['shed_rate']:.2f}); "
        f"B offered {serve_b['offered']}, shed {serve_b['shed']}, p99 "
        f"{serve_b['p99_s'] * 1000:.0f}ms vs 2*tau {2 * isolation['tau'] * 1000:.0f}ms",
    ])
