"""Additional distributed-tuning tests: recovery timing and scaling shape."""

import numpy as np
import pytest

from repro.cluster import ClusterManager, Node
from repro.cluster.manager import JobKind
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


def cluster(nodes=3, gpus=3):
    manager = ClusterManager()
    for i in range(nodes):
        manager.add_node(Node(f"n{i}", capacity=Resources(cpus=8, gpus=gpus,
                                                          memory_gb=64)))
    return manager


def run(num_workers, manager=None, failure_plan=None, max_trials=24, seed=0):
    manager = manager if manager is not None else cluster()
    ps = ParameterServer()
    conf = HyperConf(max_trials=max_trials, max_epochs_per_trial=20)
    master = StudyMaster(
        "dx", conf, RandomSearchAdvisor(section71_space(),
                                        rng=np.random.default_rng(seed)), ps
    )
    job = manager.submit_job(JobKind.TRAIN, name="dx", num_workers=num_workers,
                             queue=False)
    report = run_cluster_study(
        manager, job, master, SurrogateTrainer(seed=seed), ps, conf,
        failure_plan=failure_plan,
    )
    manager.complete_job(job.job_id)
    return manager, report


class TestScalingShape:
    def test_speedup_is_monotone_in_workers(self):
        walls = []
        for workers in (1, 2, 4):
            _, report = run(workers)
            walls.append(report.wall_time)
        assert walls[0] > walls[1] > walls[2]

    def test_doubling_workers_roughly_halves_wall_time(self):
        _, one = run(1)
        _, two = run(2)
        speedup = one.wall_time / two.wall_time
        assert 1.5 < speedup <= 2.2


class TestFailureTiming:
    def test_failure_slows_but_does_not_stop(self):
        _, healthy = run(3, max_trials=20, seed=1)
        manager = cluster()
        _, degraded = run(
            3, manager=manager,
            failure_plan=[(healthy.wall_time * 0.3, "n0", None)],
            max_trials=20, seed=1,
        )
        assert len(degraded.results) >= 20
        # losing in-flight trials cannot make the study *faster*
        assert degraded.wall_time >= healthy.wall_time * 0.9

    def test_replacement_workers_actually_train(self):
        manager = cluster()
        _, report = run(3, manager=manager, failure_plan=[(100.0, "n0", None)],
                        max_trials=30)
        assert manager.recoveries > 0
        replaced_workers = {
            result.worker for result in report.results
        }
        # at least one trial was finished by a restarted container
        restarted_ids = {
            c.container_id for c in manager.containers.values() if c.restarts > 0
        }
        assert restarted_ids & replaced_workers

    def test_two_failures_survived(self):
        manager = cluster(nodes=4)
        _, report = run(
            3, manager=manager,
            failure_plan=[(150.0, "n0", None), (400.0, "n1", None)],
            max_trials=25,
        )
        assert len(report.results) >= 25
