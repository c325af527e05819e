"""Tests for the successive-halving scheduler."""

import numpy as np
import pytest

from repro.cluster import ClusterManager, Node
from repro.cluster.manager import JobKind
from repro.cluster.node import Resources
from repro.core.tune import (
    RandomSearchAdvisor,
    StudyMaster,
    SuccessiveHalving,
    SurrogateTrainer,
    make_workers,
    run_study,
    section71_space,
)
from repro.core.tune.distributed import run_cluster_study
from repro.core.tune.trial import InitKind
from repro.exceptions import ConfigurationError
from repro.paramserver import ParameterServer


def run_halving(initial_trials=8, initial_epochs=2, eta=2, max_rungs=3,
                num_workers=3, seed=0, on_cluster=False, name="sh", ps=None):
    scheduler = SuccessiveHalving(
        initial_trials=initial_trials, initial_epochs=initial_epochs, eta=eta,
        max_rungs=max_rungs,
    )
    conf = scheduler.conf()
    ps = ps if ps is not None else ParameterServer()
    # rung-0 configurations come from whatever advisor the master holds
    advisor = RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(seed))
    master = StudyMaster(name, conf, advisor, ps, scheduler=scheduler)
    backend = SurrogateTrainer(seed=seed)
    if on_cluster:
        manager = ClusterManager()
        manager.add_node(Node("n0", capacity=Resources(cpus=8, gpus=8, memory_gb=64)))
        job = manager.submit_job(JobKind.TRAIN, name=name, num_workers=num_workers,
                                 queue=False)
        report = run_cluster_study(manager, job, master, backend, ps, conf)
        manager.complete_job(job.job_id)
    else:
        workers = make_workers(master, backend, ps, conf, num_workers)
        report = run_study(master, workers)
    return scheduler, report, ps


class TestAdvisor:  # the schedule's arithmetic (named for the advisor it once was)
    def test_rung_budgets_grow_by_eta(self):
        scheduler = SuccessiveHalving(initial_trials=4, initial_epochs=3, eta=2)
        assert scheduler.rung_budget(0) == 3
        assert scheduler.rung_budget(1) == 6
        assert scheduler.rung_budget(2) == 12

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SuccessiveHalving(initial_trials=1, eta=2)
        with pytest.raises(ConfigurationError):
            SuccessiveHalving(eta=1)


class TestHalvingStudy:
    def test_trial_counts_match_the_schedule(self):
        _, report, _ = run_halving(initial_trials=8, eta=2, max_rungs=3)
        # 8 + 4 + 2 = 14 trials in total
        assert len(report.results) == 14

    def test_budgets_are_exact_per_rung(self):
        _, report, _ = run_halving(initial_trials=8, initial_epochs=2,
                                         eta=2, max_rungs=3)
        epochs = sorted(r.epochs for r in report.results)
        assert epochs.count(2) == 8
        assert epochs.count(4) == 4
        assert epochs.count(8) == 2

    def test_survivors_warm_start_from_their_own_checkpoints(self):
        _, report, ps = run_halving()
        continuations = [
            r for r in report.results if r.trial.init_kind is InitKind.WARM_START
        ]
        assert continuations
        for result in continuations:
            assert result.trial.init_key.startswith("sh/trial/")
            assert ps.has(result.trial.init_key)

    def test_studies_sharing_a_parameter_server_keep_checkpoints_apart(self):
        """Both studies number their trials from 1; the key prefix
        defaults to the study's name."""
        ps = ParameterServer()
        reports = {
            name: run_halving(name=name, ps=ps, seed=seed)[1]
            for name, seed in (("left", 0), ("right", 1))
        }
        for name, report in reports.items():
            assert sorted(r.trial.trial_id for r in report.results) == list(range(1, 15))
            for result in report.results:
                entry = ps.get_entry(f"{name}/trial/{result.trial.trial_id}")
                assert entry.performance == result.performance

    def test_later_rungs_score_higher(self):
        """Halving spends its budget on the best configurations."""
        _, report, _ = run_halving(initial_trials=16, max_rungs=3, seed=2)
        rung0 = [r.performance for r in report.results if r.epochs == 2]
        final = [r.performance for r in report.results if r.epochs == 8]
        assert np.mean(final) > np.mean(rung0)
        assert max(final) == pytest.approx(report.best_performance, abs=1e-9)

    def test_single_worker_also_completes(self):
        _, report, _ = run_halving(num_workers=1)
        assert len(report.results) == 14

    def test_more_workers_than_rung_width(self):
        """Workers park at the rung barrier and resume afterwards."""
        _, report, _ = run_halving(initial_trials=4, max_rungs=3, num_workers=6)
        assert len(report.results) == 4 + 2 + 1

    def test_cluster_driver_runs_the_same_study(self):
        """Workers parked at a rung barrier keep polling under the
        cluster driver too (it shares ``run_study``'s loop), so no rung
        is silently truncated."""
        _, sequential, _ = run_halving()
        _, clustered, _ = run_halving(on_cluster=True)
        assert len(clustered.results) == 14
        assert clustered.total_epochs == 48
        assert clustered.history == sequential.history
