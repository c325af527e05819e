"""Serving front end under load: sustained QPS, tail latency, shedding.

Drives the admission-controlled front end (`repro.core.serve.frontend`)
with the open/closed-loop load harness (`repro.core.serve.loadgen`) on
the discrete-event simulator, using inception_v3's profiled ``c(b)``
latency model — so the curves are hardware-independent (``simulated``).

The headline matrix is an open-loop sweep at increasing concurrency:
sine-arrival target rates at multiples of the replica pool's peak
capacity (``replicas * b_max / c(b_max)``). Below capacity the front
end should serve everything inside the SLO; past capacity it must
*shed* (deadline/queue_full) rather than let the tail blow up — the
p99 of what it does serve stays bounded. A closed-loop run (think-time
clients) rides along as the self-limiting contrast.

The real measurements are in ``wall``: every offered request is one
pass through the real admission code, so offers per wall-clock second
(``admission_decisions_per_wall_s``) says how fast the front end is,
beside the *modelled* ``capacity_qps``. The start-up row times
``from repro.api import sdk`` in fresh interpreters (median of
``STARTUP_RUNS``) with their peak RSS, and gates that the import loads
no scipy module.

Run through the shared runner (see ``_perf.py``)::

    python benchmarks/bench_perf_serve.py [--smoke] [--seed N]
"""

import json
import os
import statistics
import subprocess
import sys
import time

import _perf

from repro.core.serve import (
    FrontendConfig,
    LoadGenConfig,
    ReplicaPool,
    ServeFrontend,
    capacity_qps,
    run_load,
)
from repro.zoo import get_profile

MODEL = "inception_v3"
TAU = 0.56
REPLICAS = 2
MAX_QUEUE = 1024
#: load seed of ``--seed 0``, the committed baseline's fingerprints.
BASE_SEED = 11

#: fresh interpreters timed for the start-up row.
STARTUP_RUNS = 5
#: what each of them runs: the SDK import, its time, peak RSS and scipy
#: modules. Peak RSS is the address space's own high-water mark (VmHWM):
#: ``ru_maxrss`` also counts the parent it was spawned from, which on
#: Linux carries over exec.
STARTUP_PROBE = """
import json, resource, sys, time
start = time.perf_counter()
from repro.api import sdk
seconds = time.perf_counter() - start
try:
    with open("/proc/self/status") as status:
        kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
except OSError:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "s": seconds,
    "rss_mb": kb / 1024,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
}))
"""

#: open-loop sine targets, as multiples of pool capacity. The paper's
#: sine (Equations 8/9) peaks at 1.1x its target and *averages* ~0.58x
#: of it over a full cycle, so the realised offered/capacity ratio per
#: level — recorded as ``offered_capacity_ratio`` — is what the
#: acceptance checks gate on, not the nominal multiple.
FULL_MULTIPLES = (0.6, 1.2, 1.8, 2.4, 3.0)
SMOKE_MULTIPLES = (0.8, 1.8, 3.0)


def run_level(mode: str, duration: float, seed: int, *, target_rate: float = 0.0,
              clients: int = 8) -> dict:
    """One load run: the trace's summary plus its fingerprint."""
    latency = get_profile(MODEL).inference_time
    frontend = ServeFrontend(
        FrontendConfig(latency=latency, tau=TAU, max_queue=MAX_QUEUE)
    )
    pool = ReplicaPool(latency, replicas=REPLICAS)
    load = LoadGenConfig(
        mode=mode, target_rate=target_rate, period=duration, clients=clients,
        think_time=0.05, duration=duration, seed=seed,
    )
    trace = run_load(frontend, pool, load)
    return {"fingerprint": trace.fingerprint(), **trace.summary()}


def measure_startup() -> dict:
    """``from repro.api import sdk`` in ``STARTUP_RUNS`` fresh interpreters."""
    src = os.path.join(_perf.ROOT, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probes = [
        json.loads(subprocess.run(
            [sys.executable, "-c", STARTUP_PROBE], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": path},
        ).stdout)
        for _ in range(STARTUP_RUNS)
    ]
    return {
        "sdk_import_s": statistics.median(p["s"] for p in probes),
        "sdk_import_rss_mb": statistics.median(p["rss_mb"] for p in probes),
        "sdk_import_scipy_modules": sorted({m for p in probes for m in p["scipy"]}),
    }


def run(smoke: bool, seed: int) -> dict:
    """Sweep the concurrency levels, then the closed loop."""
    multiples, duration, closed_clients = (
        (SMOKE_MULTIPLES, 8.0, 128) if smoke else (FULL_MULTIPLES, 30.0, 256)
    )
    capacity = capacity_qps(get_profile(MODEL).inference_time, 64, REPLICAS)
    started = time.perf_counter()
    levels = []
    for multiple in multiples:
        level = run_level("open", duration, BASE_SEED + seed,
                          target_rate=multiple * capacity)
        levels.append({
            "capacity_multiple": multiple,
            "target_qps": multiple * capacity,
            "offered_capacity_ratio": level["offered_qps"] / capacity,
            # Equations 8/9: the sine's peak is 1.1x its nominal target.
            "peak_capacity_ratio": 1.1 * multiple,
            **level,
        })
    closed = run_level("closed", duration, BASE_SEED + seed, clients=closed_clients)
    wall_s = time.perf_counter() - started
    offers = sum(level["offered"] for level in levels) + closed["offered"]
    return {
        "simulated": {
            "model": MODEL,
            "tau_s": TAU,
            "replicas": REPLICAS,
            "max_queue": MAX_QUEUE,
            "capacity_qps": capacity,
            "duration_s": duration,
            "seed": BASE_SEED + seed,
            "levels": levels,
            "closed_loop": {"clients": closed_clients, "think_time_s": 0.05,
                            **closed},
        },
        "wall": {
            "bench_wall_s": wall_s,
            "admission_decisions": offers,
            "admission_decisions_per_wall_s": offers / wall_s,
            **measure_startup(),
        },
    }


def table(payload: dict) -> str:
    sim, wall = payload["simulated"], payload["wall"]
    lines = [
        f"{MODEL} x{sim['replicas']} replicas, tau={sim['tau_s']}s, "
        f"capacity {sim['capacity_qps']:.0f} qps (modelled), "
        f"{sim['duration_s']:.0f}s per level",
        f"{'level':<14} {'target':>7} {'offered':>8} {'served':>8} "
        f"{'p50(ms)':>8} {'p95(ms)':>8} {'p99(ms)':>8} {'shed%':>6} {'miss%':>6}",
    ]
    for level in sim["levels"] + [sim["closed_loop"]]:
        if level["mode"] == "open":
            label = f"open {level['capacity_multiple']:.1f}x"
            target = f"{level['target_qps']:.0f}"
        else:
            label = f"closed {level['clients']}c"
            target = "-"
        lines.append(
            f"{label:<14} {target:>7} {level['offered_qps']:>8.1f} "
            f"{level['sustained_qps']:>8.1f} {1000 * level['p50_s']:>8.1f} "
            f"{1000 * level['p95_s']:>8.1f} {1000 * level['p99_s']:>8.1f} "
            f"{100 * level['shed_rate']:>6.1f} "
            f"{100 * level['slo_miss_rate']:>6.2f}"
        )
    lines.append(
        f"wall: {wall['admission_decisions']} admission decisions in "
        f"{wall['bench_wall_s']:.2f}s = "
        f"{wall['admission_decisions_per_wall_s']:.0f} per wall second"
    )
    lines.append(
        f"start-up: from repro.api import sdk in {wall['sdk_import_s']:.3f}s, "
        f"{wall['sdk_import_rss_mb']:.1f} MB peak RSS (median of {STARTUP_RUNS} "
        f"fresh interpreters), {len(wall['sdk_import_scipy_modules'])} scipy modules"
    )
    return "\n".join(lines)


def check(payload: dict) -> list[str]:
    """The portable acceptance bars; returns failure messages."""
    levels = payload["simulated"]["levels"]
    failures = []
    scipy_modules = payload["wall"]["sdk_import_scipy_modules"]
    if scipy_modules:
        failures.append(
            f"from repro.api import sdk loaded {len(scipy_modules)} scipy modules "
            f"({', '.join(scipy_modules[:3])}, ...); scipy belongs where it is first used"
        )
    if len(levels) < 3:
        failures.append(f"only {len(levels)} concurrency levels")
    # A sine level's stress is set by its *peak* (1.1x the nominal
    # multiple), not its cycle average: a 1.2x level spends 20% of the
    # cycle above capacity and legitimately sheds there while averaging
    # well under capacity.
    over = [l for l in levels if l["peak_capacity_ratio"] > 1.3]
    under = [l for l in levels if l["peak_capacity_ratio"] < 0.95]
    if not over:
        failures.append("no level peaked above 1.3x capacity — "
                        "the sweep never exercised overload")
    for level in over:
        ratio = level["peak_capacity_ratio"]
        if level["shed_rate"] <= 0.0:
            failures.append(
                f"peak {ratio:.2f}x capacity shed nothing — "
                "admission control is not engaging under overload"
            )
        if level["p99_s"] > 2.0 * TAU:
            failures.append(
                f"peak {ratio:.2f}x capacity served p99 "
                f"{level['p99_s']:.3f}s > 2*tau — shedding is not bounding the tail"
            )
    for level in under:
        if level["shed_rate"] > 0.05:
            failures.append(
                f"peak {level['peak_capacity_ratio']:.2f}x capacity shed "
                f"{100 * level['shed_rate']:.1f}% — admission too aggressive"
            )
    return failures


if __name__ == "__main__":
    raise SystemExit(_perf.main(sys.modules[__name__]))
