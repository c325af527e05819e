"""Chaos tests for the cluster/tuning layer: crashes, failures, recovery.

The determinism story under test: trial sessions are pure functions of
(trial, init state), so a trial restarted after a crash — or re-issued
to a replacement worker after a node failure — reproduces its healthy
epochs bit-for-bit, and the study converges to the same best trial a
fault-free run finds.
"""

import numpy as np
import pytest

from repro import chaos, telemetry
from repro.chaos import FaultKind, FaultPlan, FaultRule
from repro.cluster import ClusterManager, Node
from repro.cluster.manager import JobKind, JobState
from repro.cluster.node import Resources
from repro.core.tune import (
    HyperConf,
    RandomSearchAdvisor,
    StudyMaster,
    SurrogateTrainer,
    section71_space,
)
from repro.core.tune.distributed import run_cluster_study
from repro.core.tune.trial import TrialStatus
from repro.paramserver import ParameterServer
from repro.utils.retry import RetryPolicy

pytestmark = pytest.mark.chaos


class _Owner(list):
    """A list that can be held weakly, as every registered owner is."""


def make_cluster(nodes=3, gpus=3):
    manager = ClusterManager()
    for i in range(nodes):
        manager.add_node(
            Node(f"n{i}", capacity=Resources(cpus=8, gpus=gpus, memory_gb=64))
        )
    return manager


def counter_total(name):
    return sum(telemetry.get_registry().counter(name).snapshot().values())


def run_study(plan=None, failure_plan=None, seed=0, max_trials=12,
              trial_attempts=3):
    """One cluster study under an optional fault plan / failure plan."""
    telemetry.set_registry(telemetry.MetricsRegistry())
    chaos.set_plan(plan)
    try:
        manager = make_cluster()
        ps = ParameterServer()
        conf = HyperConf(max_trials=max_trials, max_epochs_per_trial=20)
        master = StudyMaster(
            "cx", conf,
            RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(seed)),
            ps,
        )
        report = run_cluster_study(
            manager, master, SurrogateTrainer(seed=seed), ps, conf,
            num_workers=3, failure_plan=failure_plan,
            trial_retry=RetryPolicy(max_attempts=trial_attempts, jitter=0.0,
                                    seed=seed),
        )
        crashes = counter_total("repro_tune_trial_crashes_total")
        reissued = counter_total("repro_tune_trials_reissued_total")
        return manager, report, crashes, reissued
    finally:
        chaos.set_plan(None)


def result_map(report):
    return {
        r.trial.trial_id: (round(r.performance, 12), r.epochs)
        for r in report.results
    }


class TestTrialCrashRecovery:
    def test_retried_trials_reproduce_fault_free_results(self):
        _, healthy, crashes, _ = run_study()
        assert crashes == 0
        plan = FaultPlan(
            [FaultRule("tune.trial", FaultKind.EXCEPTION, probability=0.04,
                       max_faults=5)],
            seed=0,
        )
        _, crashed, crashes, _ = run_study(plan=plan)
        assert crashes > 0
        # Every healthy trial reappears with an identical result: the
        # restarted session replays the lost epochs deterministically.
        # (Crash delays can let the master finish a few *extra* trials,
        # so the faulted run is a superset, never a divergence.)
        assert result_map(healthy).items() <= result_map(crashed).items()
        assert crashed.best_performance >= healthy.best_performance

    def test_exhausted_retries_fail_the_trial_not_the_study(self):
        plan = FaultPlan([FaultRule("tune.trial", FaultKind.EXCEPTION)], seed=0)
        _, report, crashes, _ = run_study(plan=plan, max_trials=4,
                                          trial_attempts=2)
        statuses = {r.trial.status for r in report.results}
        assert statuses == {TrialStatus.FAILED}
        assert report.best_performance == 0.0
        # every issued trial crashed exactly max_attempts times: one
        # retry, then failed (concurrency can let the master issue a few
        # more than max_trials before it observes enough finishes)
        finished = len(report.results)
        assert finished >= 4
        assert crashes == finished * 2
        registry = telemetry.get_registry()
        counter = registry.counter("repro_tune_trial_crashes_total")
        assert counter.value(outcome="failed") == finished
        assert counter.value(outcome="retried") == finished

    def test_crash_runs_are_reproducible_per_seed(self):
        def trace():
            plan = FaultPlan(
                [FaultRule("tune.trial", FaultKind.EXCEPTION, probability=0.04,
                           max_faults=5)],
                seed=3,
            )
            _, report, crashes, _ = run_study(plan=plan, seed=3)
            return result_map(report), crashes, report.wall_time

        assert trace() == trace()


class TestNodeFailureRecovery:
    def test_reissued_trials_match_healthy_run(self):
        _, healthy, _, _ = run_study()
        manager, faulted, _, reissued = run_study(
            failure_plan=[(150.0, "n0", 900.0)]
        )
        assert manager.recoveries > 0
        assert manager.nodes["n0"].alive  # recovered 900 s after it failed
        assert reissued > 0
        # In-flight trials were re-run from checkpoint by replacement
        # workers, so the advisor saw the healthy trial sequence and the
        # study lands on the same results (and the same best trial).
        assert result_map(faulted) == result_map(healthy)
        assert faulted.best.trial.trial_id == healthy.best.trial.trial_id
        assert faulted.wall_time >= healthy.wall_time

    def test_same_seed_failure_runs_are_bit_identical(self):
        def trace():
            manager, report, crashes, reissued = run_study(
                failure_plan=[(150.0, "n0", 900.0), (400.0, "n1", None)]
            )
            return (result_map(report), report.wall_time, crashes, reissued,
                    manager.recoveries)

        assert trace() == trace()

    def test_combined_node_failure_and_trial_crashes(self):
        plan = FaultPlan(
            [FaultRule("tune.trial", FaultKind.EXCEPTION, probability=0.03,
                       max_faults=4)],
            seed=1,
        )
        manager, report, crashes, _ = run_study(
            plan=plan, failure_plan=[(200.0, "n0", 600.0)]
        )
        assert manager.recoveries > 0
        assert len(report.results) >= 12
        assert report.best_performance > 0

    def test_a_finished_study_no_longer_answers_recoveries(self, monkeypatch):
        """Regression: ``run_cluster_study`` left its recovery hook on the
        manager, so the next study's replacement containers each started
        a worker of the finished study as well."""
        from repro.core.tune import distributed

        built = []
        real = distributed.TuneWorker
        monkeypatch.setattr(
            distributed, "TuneWorker",
            lambda **kwargs: built.append(kwargs["name"]) or real(**kwargs),
        )
        manager = make_cluster()
        hooks_before = len(manager._recovery_hooks)
        for name in ("first", "second"):
            ps = ParameterServer()
            conf = HyperConf(max_trials=8, max_epochs_per_trial=20)
            master = StudyMaster(
                name, conf,
                RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(0)),
                ps,
            )
            run_cluster_study(
                manager, master, SurrogateTrainer(seed=0), ps, conf,
                num_workers=2, failure_plan=[(150.0, "n0", 400.0)],
            )
            # the study's hook died with it: no live owner is left behind
            live_hooks = [hook for hook in manager._recovery_hooks if hook.owner() is not None]
            assert len(live_hooks) == hooks_before
        # per study: two workers, both on n0, both replaced once
        assert len(built) == len(set(built)) == 8


    def test_a_cluster_study_is_counted_like_any_other(self):
        """Regression: the span, the counter and the wall-time gauge of a
        finished study were ``run_study``'s alone."""
        manager = make_cluster()
        ps = ParameterServer()
        conf = HyperConf(max_trials=8, max_epochs_per_trial=20)
        master = StudyMaster(
            "counted", conf,
            RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(0)),
            ps,
        )
        report = run_cluster_study(
            manager, master, SurrogateTrainer(seed=0), ps, conf,
            num_workers=2, failure_plan=[(150.0, "n0", 400.0)],
        )
        assert manager.recoveries > 0
        registry = telemetry.get_registry()
        assert registry.counter("repro_tune_studies_completed_total").value() == 1
        assert registry.gauge("repro_tune_study_wall_seconds").value() == report.wall_time
        (span,) = [s for s in telemetry.get_tracer().export() if s["name"] == "run_study"]
        assert span["tags"]["study"] == "counted" and span["tags"]["workers"] == 2
        assert span["tags"]["trials"] == len(report.results)


class TestDegradedJobs:
    def make_tight_cluster(self):
        """Two nodes where a failed worker cannot be re-placed."""
        manager = ClusterManager()
        manager.add_node(Node("a", capacity=Resources(cpus=4, gpus=2, memory_gb=32)))
        manager.add_node(Node("b", capacity=Resources(cpus=4, gpus=2, memory_gb=32)))
        job = manager.submit_job(JobKind.TRAIN, name="tight", num_workers=3)
        return manager, job

    def test_no_capacity_degrades_and_queues(self):
        manager, job = self.make_tight_cluster()
        spilled = next(
            node for node in ("a", "b")
            if any(c.node_name == node for c in job.containers)
            and not all(c.node_name == node for c in job.containers)
        )
        manager.fail_node(spilled)
        assert job.state is JobState.DEGRADED
        gauge = telemetry.get_registry().gauge("repro_cluster_pending_restarts")
        assert sum(gauge.snapshot().values()) > 0

    def test_recover_node_drains_queue_and_reruns_job(self):
        manager, job = self.make_tight_cluster()
        by_node = {}
        for container in job.containers:
            by_node.setdefault(container.node_name, []).append(container)
        (busier, _), (quieter, _) = sorted(
            by_node.items(), key=lambda kv: -len(kv[1])
        )
        manager.fail_node(quieter)
        assert job.state is JobState.DEGRADED
        started = manager.recover_node(quieter)
        assert started
        assert job.state is JobState.RUNNING
        assert all(c.running for c in job.containers)
        gauge = telemetry.get_registry().gauge("repro_cluster_pending_restarts")
        assert sum(gauge.snapshot().values()) == 0

    def test_recovery_hooks_fire_once_per_replacement(self):
        manager = make_cluster(nodes=3)
        job = manager.submit_job(JobKind.TRAIN, name="hooks", num_workers=2)
        seen = _Owner()
        manager.on_recovery(seen, lambda owner, c: owner.append(c.container_id))
        lost_node = job.containers[0].node_name
        replacements = manager.fail_node(lost_node)
        assert replacements
        assert sorted(seen) == sorted(c.container_id for c in replacements)
        assert len(seen) == len(set(seen))
        for replacement in replacements:
            assert replacement.predecessor is not None
            assert replacement.restarts == 1
