"""Determinism and protocol tests for multi-core trial execution.

``run_study_parallel`` must produce the *same* study report as
``run_study`` for a fixed seed — only real wall-clock may differ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tune import (
    CoStudyMaster,
    HyperConf,
    PoolTrialExecutor,
    RandomSearchAdvisor,
    RealTrainer,
    StudyMaster,
    Trial,
    make_workers,
    run_study,
    run_study_parallel,
)
from repro.core.tune.hyperspace import HyperSpace
from repro.exceptions import ConfigurationError
from repro.paramserver import ParameterServer
from repro.zoo.builders import build_mlp


def tiny_space() -> HyperSpace:
    space = HyperSpace()
    space.add_range_knob("lr", "float", 0.01, 0.2, log_scale=True)
    space.add_range_knob("momentum", "float", 0.0, 0.9)
    return space


def make_study(tiny_dataset, collaborative: bool, seed: int = 3):
    conf = HyperConf(
        max_trials=4, max_epochs_per_trial=2, early_stop_patience=2, delta=0.005
    )
    param_server = ParameterServer()
    advisor = RandomSearchAdvisor(tiny_space(), rng=np.random.default_rng(seed))
    if collaborative:
        master = CoStudyMaster(
            "par", conf, advisor, param_server, rng=np.random.default_rng(seed + 7)
        )
    else:
        master = StudyMaster("par", conf, advisor, param_server)
    backend = RealTrainer(
        tiny_dataset, build_mlp, batch_size=16, use_augmentation=False, seed=11
    )
    workers = make_workers(master, backend, param_server, conf, num_workers=2)
    return master, workers


def report_fingerprint(report):
    return [
        (e.index, round(e.performance, 10), e.epochs, e.total_epochs,
         round(e.best_so_far, 10), e.time, e.init_kind)
        for e in report.history
    ]


class TestRunStudyParallel:
    @pytest.mark.parametrize("collaborative", [False, True])
    def test_matches_sequential_report(self, tiny_dataset, collaborative):
        master_a, workers_a = make_study(tiny_dataset, collaborative)
        sequential = run_study(master_a, workers_a)

        master_b, workers_b = make_study(tiny_dataset, collaborative)
        parallel = run_study_parallel(master_b, workers_b, processes=2)

        assert parallel.best_performance == sequential.best_performance
        assert parallel.total_epochs == sequential.total_epochs
        assert parallel.wall_time == sequential.wall_time
        assert report_fingerprint(parallel) == report_fingerprint(sequential)

    def test_backends_restored_after_run(self, tiny_dataset):
        master, workers = make_study(tiny_dataset, collaborative=False)
        original = [w.backend for w in workers]
        run_study_parallel(master, workers, processes=2)
        assert [w.backend for w in workers] == original

    def test_best_state_matches_sequential(self, tiny_dataset):
        """The kPut'd winner parameters agree with the sequential run."""
        master_a, workers_a = make_study(tiny_dataset, collaborative=False)
        run_study(master_a, workers_a)
        state_a = master_a.param_server.get(master_a.best_key)

        master_b, workers_b = make_study(tiny_dataset, collaborative=False)
        run_study_parallel(master_b, workers_b, processes=2)
        state_b = master_b.param_server.get(master_b.best_key)

        assert sorted(state_a) == sorted(state_b)
        for name in state_a:
            np.testing.assert_array_equal(state_a[name], state_b[name])

    def test_requires_workers(self):
        with pytest.raises(ConfigurationError):
            run_study_parallel(None, [])


class TestParallelTrialExecutor:
    """The process-parallel trial executor — :class:`PoolTrialExecutor`."""

    def test_session_protocol(self, tiny_dataset):
        conf = HyperConf(max_trials=1, max_epochs_per_trial=2)
        trainer = RealTrainer(
            tiny_dataset, build_mlp, batch_size=16, use_augmentation=False, seed=5
        )
        with PoolTrialExecutor(trainer, conf, processes=1) as executor:
            trial = Trial(params={"lr": 0.05}, trial_id=1)
            session = executor.start(trial, None)
            first = session.run_epoch()
            second = session.run_epoch()
            assert session.epochs == 2
            assert session.best_performance == max(first, second)
            state = session.state_dict()
            assert state  # non-empty parameter dict

        # Matches the in-process session epoch for epoch.
        reference = trainer.start(Trial(params={"lr": 0.05}, trial_id=trial.trial_id), None)
        assert reference.run_epoch() == first
        assert reference.run_epoch() == second

    def test_epoch_cost_delegates(self, tiny_dataset):
        conf = HyperConf(max_trials=1)
        trainer = RealTrainer(
            tiny_dataset, build_mlp, seconds_per_epoch=12.5, use_augmentation=False
        )
        executor = PoolTrialExecutor(trainer, conf, processes=1)
        assert executor.epoch_cost(Trial(params={}, trial_id=1)) == 12.5
        executor.finish_study()  # never started: must be a no-op

    def test_rejects_non_real_trainer(self):
        with pytest.raises(ConfigurationError):
            PoolTrialExecutor(object(), HyperConf(max_trials=1))
