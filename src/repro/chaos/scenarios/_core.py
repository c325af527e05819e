"""What every seeded scenario runs inside: sandbox, trace counters, digests."""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

from repro import chaos, telemetry
from repro.chaos.faults import FaultPlan
from repro.exceptions import InjectedFault
from repro.utils.retry import RetryPolicy

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
    ``repro chaos --verify`` and of the perf-bench runner.
    """
    first, again = run(), run()
    return first, first[section] == again[section]


def _failures(findings: dict[str, Any]) -> list[str]:
    """``problem: evidence`` for each finding whose evidence is not falsy."""
    return [f"{problem}: {found}" for problem, found in findings.items() if found]


def _trace_counters(registry: telemetry.MetricsRegistry, *more: str) -> dict[str, Any]:
    """The retry/recovery counter values (and the ``more`` prefixes a
    scenario's trace additionally replays), filtered from a full snapshot."""
    full = telemetry.snapshot(registry)
    return {
        name: data["values"]
        for section in ("counters", "gauges")
        for name, data in sorted(full.get(section, {}).items())
        if name.startswith(TRACE_METRIC_PREFIXES + more)
    }


def _state_digest(state) -> str:
    """Order-independent digest of one checkpoint's arrays."""
    digest = hashlib.sha256()
    for name in sorted(state):
        value = state[name]
        digest.update(name.encode("utf-8"))
        digest.update(str(value.shape).encode("utf-8"))
        digest.update(value.dtype.str.encode("utf-8"))
        digest.update(np.ascontiguousarray(value).tobytes())
    return digest.hexdigest()


def _bytes_digest(data: bytes) -> str:
    """sha256 hexdigest of a byte string (file identity in traces)."""
    return hashlib.sha256(data).hexdigest()


def _cluster(nodes: int = 3, **manager_kwargs):
    """A cluster manager over ``nodes`` 8-cpu, 3-gpu machines ``n0``, ``n1``..."""
    from repro.cluster import ClusterManager, Node
    from repro.cluster.node import Resources

    manager = ClusterManager(**manager_kwargs)
    for i in range(nodes):
        manager.add_node(
            Node(f"n{i}", capacity=Resources(cpus=8, gpus=3, memory_gb=64))
        )
    return manager


def _push_retry(seed: int) -> RetryPolicy:
    """The parameter-server policy that re-sends dropped pushes until they land."""
    return RetryPolicy(
        max_attempts=4, jitter=0.0, retry_on=(InjectedFault,), seed=seed
    )


def _surrogate_study(name: str, seed: int, manager, param_server, failure_plan):
    """A 16-trial surrogate study on a 3-worker TRAIN job of ``manager``;
    returns its report."""
    from repro.cluster.manager import JobKind
    from repro.core.tune import (
        HyperConf,
        RandomSearchAdvisor,
        StudyMaster,
        SurrogateTrainer,
        section71_space,
    )
    from repro.core.tune.distributed import run_cluster_study

    conf = HyperConf(max_trials=16, max_epochs_per_trial=20)
    master = StudyMaster(
        name,
        conf,
        RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(seed)),
        param_server,
    )
    job = manager.submit_job(JobKind.TRAIN, name=name, num_workers=3, queue=False)
    report = run_cluster_study(
        manager,
        job,
        master,
        SurrogateTrainer(seed=seed),
        param_server,
        conf,
        failure_plan=failure_plan,
    )
    manager.complete_job(job.job_id)
    return report
