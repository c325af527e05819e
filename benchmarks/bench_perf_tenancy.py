"""Tenant isolation under a noisy neighbour: with vs without limits.

Two tenants share one admission-controlled front end
(`repro.core.serve.frontend`) on the discrete-event simulator: tenant A
floods at ~3x the replica pool's capacity while tenant B offers a
modest fraction of it. The matrix runs the same two-tenant load twice:

* **unprotected** — no tenant-scoped limits: A's flood fills the
  shared accept queue, so B's requests queue behind it and are shed or
  served late (the noisy-neighbour baseline);
* **isolated** — A is clamped by a tenant token bucket at half of
  capacity and a 50% queue-share cap: B must see **zero** sheds and a
  served p99 within ``2 * tau``.

Both runs use inception_v3's profiled ``c(b)`` latency model, so every
number but the bench's own wall time is ``simulated``.

Run through the shared runner (see ``_perf.py``)::

    python benchmarks/bench_perf_tenancy.py [--smoke] [--seed N]

exits non-zero if the same-seed re-run diverges, if the unprotected
run fails to show noisy-neighbour impact on B, or if the isolated run
violates the isolation gate (any B shed, or B p99 > 2*tau).
"""

import sys
import time

import _perf

from repro.core.serve import (
    FrontendConfig,
    LoadGenConfig,
    ReplicaPool,
    ServeFrontend,
    capacity_qps,
    run_multi_load,
)
from repro.zoo import get_profile

MODEL = "inception_v3"
TAU = 0.56
REPLICAS = 2
MAX_QUEUE = 256
#: load seed of ``--seed 0``, the committed baseline's fingerprints.
BASE_SEED = 13

#: tenant A's flood, as a multiple of pool capacity; B's modest rate.
FLOOD_MULTIPLE = 3.0
QUIET_MULTIPLE = 0.15
#: isolated run: A's tenant token-bucket rate as a capacity multiple,
#: and its cap on the shared accept queue.
TENANT_A_RATE_MULTIPLE = 0.5
TENANT_A_QUEUE_SHARE = 0.5


def run_pair(isolated: bool, duration: float, seed: int) -> dict:
    """One two-tenant run: per-tenant summaries plus the fingerprint."""
    latency = get_profile(MODEL).inference_time
    capacity = capacity_qps(latency, 64, REPLICAS)
    config = FrontendConfig(
        latency=latency,
        tau=TAU,
        max_queue=MAX_QUEUE,
        tenant_rate_limits=(
            {"tenant-a": TENANT_A_RATE_MULTIPLE * capacity} if isolated else None
        ),
        tenant_max_queue_share=TENANT_A_QUEUE_SHARE if isolated else None,
    )
    loads = [
        LoadGenConfig(
            mode="open", target_rate=FLOOD_MULTIPLE * capacity,
            period=duration, duration=duration, seed=seed, tenant="tenant-a",
        ),
        LoadGenConfig(
            mode="open", target_rate=QUIET_MULTIPLE * capacity,
            period=duration, duration=duration, seed=seed + 1, tenant="tenant-b",
        ),
    ]
    trace = run_multi_load(
        ServeFrontend(config), ReplicaPool(latency, replicas=REPLICAS), loads
    )
    return {
        "isolated": isolated,
        "fingerprint": trace.fingerprint(),
        "tenant_a": trace.summary("tenant-a"),
        "tenant_b": trace.summary("tenant-b"),
    }


def run(smoke: bool, seed: int) -> dict:
    """Unprotected vs isolated runs of the same two-tenant load."""
    duration = 8.0 if smoke else 30.0
    started = time.perf_counter()
    runs = {
        name: run_pair(isolated, duration, BASE_SEED + seed)
        for name, isolated in (("unprotected", False), ("isolated", True))
    }
    wall_s = time.perf_counter() - started
    isolated_b = runs["isolated"]["tenant_b"]
    unprotected_b = runs["unprotected"]["tenant_b"]
    return {
        "simulated": {
            "model": MODEL,
            "tau_s": TAU,
            "replicas": REPLICAS,
            "max_queue": MAX_QUEUE,
            "capacity_qps": capacity_qps(
                get_profile(MODEL).inference_time, 64, REPLICAS
            ),
            "duration_s": duration,
            "seed": BASE_SEED + seed,
            "flood_multiple": FLOOD_MULTIPLE,
            "quiet_multiple": QUIET_MULTIPLE,
            "tenant_a_rate_multiple": TENANT_A_RATE_MULTIPLE,
            "tenant_a_queue_share": TENANT_A_QUEUE_SHARE,
            "runs": runs,
            "isolation": {
                "b_shed_isolated": isolated_b["shed"],
                "b_p99_isolated_s": isolated_b["p99_s"],
                "b_shed_unprotected": unprotected_b["shed"],
                "b_p99_unprotected_s": unprotected_b["p99_s"],
                "zero_b_sheds": isolated_b["shed"] == 0,
                "b_p99_within_2tau": isolated_b["p99_s"] <= 2.0 * TAU,
                "neighbour_was_noisy": (
                    unprotected_b["shed"] > 0 or unprotected_b["p99_s"] > 2.0 * TAU
                ),
            },
        },
        "wall": {"bench_wall_s": wall_s},
    }


def table(payload: dict) -> str:
    sim = payload["simulated"]
    lines = [
        f"{MODEL} x{sim['replicas']} replicas, tau={sim['tau_s']}s, "
        f"capacity {sim['capacity_qps']:.0f} qps (modelled); tenant-a floods "
        f"{sim['flood_multiple']:.1f}x, tenant-b offers "
        f"{sim['quiet_multiple']:.2f}x, {sim['duration_s']:.0f}s",
        f"{'run':<12} {'tenant':<9} {'offered':>8} {'served':>8} "
        f"{'p50(ms)':>8} {'p99(ms)':>8} {'shed%':>6} {'miss%':>6}",
    ]
    for name in ("unprotected", "isolated"):
        for tenant in ("tenant_a", "tenant_b"):
            s = sim["runs"][name][tenant]
            lines.append(
                f"{name:<12} {tenant.replace('_', '-'):<9} "
                f"{s['offered_qps']:>8.1f} {s['sustained_qps']:>8.1f} "
                f"{1000 * s['p50_s']:>8.1f} {1000 * s['p99_s']:>8.1f} "
                f"{100 * s['shed_rate']:>6.1f} {100 * s['slo_miss_rate']:>6.2f}"
            )
    iso = sim["isolation"]
    lines.append(
        f"isolation gate: B sheds {iso['b_shed_isolated']} "
        f"(unprotected {iso['b_shed_unprotected']}), B p99 "
        f"{1000 * iso['b_p99_isolated_s']:.0f}ms "
        f"(unprotected {1000 * iso['b_p99_unprotected_s']:.0f}ms, "
        f"2*tau {2000 * sim['tau_s']:.0f}ms)"
    )
    return "\n".join(lines)


def check(payload: dict) -> list[str]:
    """The portable acceptance bars; returns failure messages."""
    sim = payload["simulated"]
    iso = sim["isolation"]
    failures = []
    if not iso["neighbour_was_noisy"]:
        failures.append(
            "unprotected run showed no noisy-neighbour impact on tenant-b — "
            "the flood level is too low to prove the limits matter"
        )
    if not iso["zero_b_sheds"]:
        failures.append(
            f"isolated run shed {iso['b_shed_isolated']} tenant-b requests — "
            "tenant limits are not protecting the quiet tenant"
        )
    if not iso["b_p99_within_2tau"]:
        failures.append(
            f"isolated run served tenant-b p99 {iso['b_p99_isolated_s']:.3f}s "
            "> 2*tau — the flood still dominates the queue"
        )
    if sim["runs"]["isolated"]["tenant_a"]["shed_rate"] <= 0.0:
        failures.append(
            "isolated run shed none of tenant-a's flood — "
            "the tenant bucket/queue cap never engaged"
        )
    return failures


if __name__ == "__main__":
    raise SystemExit(_perf.main(sys.modules[__name__]))
