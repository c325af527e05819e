"""Whole-study tests for Study / CoStudy and the worker protocol.

Message-level replies per scheduler are pinned by the protocol table in
``tests/test_schedulers.py``.
"""

import numpy as np
import pytest

from repro.cluster.message import Message, MessageType
from repro.core.tune import (
    CoStudyMaster,
    HyperConf,
    InitKind,
    RandomSearchAdvisor,
    StudyMaster,
    SurrogateTrainer,
    make_workers,
    run_study,
    section71_space,
)
from repro.paramserver import ParameterServer


def build_study(kind="study", max_trials=10, num_workers=2, seed=0, **conf_kwargs):
    space = section71_space()
    conf = HyperConf(max_trials=max_trials, max_epochs_per_trial=20, **conf_kwargs)
    ps = ParameterServer()
    advisor = RandomSearchAdvisor(space, rng=np.random.default_rng(seed))
    backend = SurrogateTrainer(seed=seed)
    if kind == "study":
        master = StudyMaster("s", conf, advisor, ps)
    else:
        master = CoStudyMaster("s", conf, advisor, ps, rng=np.random.default_rng(seed))
    workers = make_workers(master, backend, ps, conf, num_workers)
    return master, workers, ps


class TestStudy:
    def test_runs_to_completion(self):
        master, workers, _ = build_study(max_trials=10)
        report = run_study(master, workers)
        assert master.done
        assert len(report.results) >= 10
        assert all(worker.terminated for worker in workers)

    def test_best_params_stored_in_parameter_server(self):
        master, workers, ps = build_study(max_trials=8)
        report = run_study(master, workers)
        assert ps.has("s/best")
        stored_perf = ps.get_entry("s/best").performance
        assert stored_perf == pytest.approx(report.best_performance, abs=0.05)

    def test_history_monotone_best(self):
        master, workers, _ = build_study(max_trials=12)
        report = run_study(master, workers)
        bests = [entry.best_so_far for entry in report.history]
        assert bests == sorted(bests)

    def test_total_epochs_accumulate(self):
        master, workers, _ = build_study(max_trials=6)
        report = run_study(master, workers)
        assert report.total_epochs == sum(r.epochs for r in report.results)
        assert report.history[-1].total_epochs == report.total_epochs

    def test_wall_time_positive_and_scales(self):
        m1, w1, _ = build_study(max_trials=10, num_workers=1)
        r1 = run_study(m1, w1)
        m4, w4, _ = build_study(max_trials=10, num_workers=4)
        r4 = run_study(m4, w4)
        assert r1.wall_time > 0
        # 4 workers finish the same trial budget much faster
        assert r4.wall_time < r1.wall_time

    def test_trials_are_randomly_initialised(self):
        master, workers, _ = build_study(max_trials=6)
        report = run_study(master, workers)
        assert all(r.trial.init_kind is InitKind.RANDOM for r in report.results)

    @pytest.mark.parametrize("kind", ["study", "costudy"])
    def test_same_seed_study_rerun_in_one_process_is_identical(self, kind):
        """Trial ids (which seed the sessions) are the master's own."""
        runs = []
        for _ in range(2):
            master, workers, _ = build_study(kind, max_trials=8)
            runs.append(run_study(master, workers))
        first, second = runs
        ids = sorted(r.trial.trial_id for r in first.results)
        assert ids == list(range(1, len(ids) + 1))
        assert [(r.trial.trial_id, r.performance) for r in first.results] == [
            (r.trial.trial_id, r.performance) for r in second.results]
        assert first.history == second.history

    def test_max_total_epochs_stops_early(self):
        master, workers, _ = build_study(max_trials=500, max_total_epochs=60)
        report = run_study(master, workers)
        assert report.total_epochs >= 60
        assert len(report.results) < 500


class TestCoStudy:
    def test_warm_starts_dominate_after_alpha_decay(self):
        master, workers, _ = build_study(
            "costudy", max_trials=40, alpha0=0.5, alpha_decay=0.7, alpha_min=0.05
        )
        run_study(master, workers)
        inits = master.schedulers[0].checkpoint_state()
        assert inits["warm_inits"] > inits["random_inits"]

    def test_checkpoint_ratchets_upward(self):
        master, workers, ps = build_study("costudy", max_trials=30, delta=0.005)
        run_study(master, workers)
        assert ps.has("s/best")
        versions = ps.versions("s/best")
        assert versions >= 2  # re-checkpointed as performance improved
        performances = [
            ps.get_entry("s/best", v).performance for v in range(1, versions + 1)
        ]
        assert performances == sorted(performances)

    def test_costudy_uses_fewer_epochs_than_study(self):
        """Warm starting converges faster (Figure 8c's x-axis)."""
        study_master, study_workers, _ = build_study("study", max_trials=30)
        study_report = run_study(study_master, study_workers)
        co_master, co_workers, _ = build_study("costudy", max_trials=30)
        co_report = run_study(co_master, co_workers)
        assert co_report.total_epochs < study_report.total_epochs

    def test_costudy_mean_performance_higher(self):
        """Figure 8b: CoStudy's trials are denser in the top region."""
        _, study_workers, _ = (None, None, None)
        study_master, study_workers, _ = build_study("study", max_trials=40, seed=3)
        study_report = run_study(study_master, study_workers)
        co_master, co_workers, _ = build_study("costudy", max_trials=40, seed=3)
        co_report = run_study(co_master, co_workers)
        study_mean = np.mean([r.performance for r in study_report.results])
        co_mean = np.mean([r.performance for r in co_report.results])
        assert co_mean > study_mean

    def test_master_state_checkpoint_roundtrip(self):
        master, workers, _ = build_study("costudy", max_trials=10)
        run_study(master, workers)
        state = master.checkpoint_state()
        fresh_master, _, _ = build_study("costudy", max_trials=10)
        fresh_master.restore_state(state)
        assert fresh_master.num_finished == master.num_finished
        (restored,), (costudy,) = fresh_master.schedulers, master.schedulers
        assert restored.best_p == costudy.best_p
        assert restored.checkpoint_state()["warm_inits"] == \
            costudy.checkpoint_state()["warm_inits"]

    def test_restored_master_continues_trial_numbering(self):
        master, _, _ = build_study(max_trials=10)
        for worker in ("w0", "w1"):
            master.mailbox.send(Message(MessageType.REQUEST, worker))
        assert [r.payload["trial"].trial_id for _, r in master.step()] == [1, 2]
        restored, _, _ = build_study(max_trials=10)
        restored.restore_state(master.checkpoint_state())
        restored.mailbox.send(Message(MessageType.REQUEST, "w2"))
        ((_, reply),) = restored.step()
        assert reply.payload["trial"].trial_id == 3  # never 1 or 2 again

    def test_master_side_early_stopping_sends_stop(self):
        """CoStudy masters stop plateaued workers (Algorithm 2 line 11)."""
        master, workers, _ = build_study(
            "costudy", max_trials=6, early_stop_patience=2
        )
        report = run_study(master, workers)
        # with centralised stopping, trials end well before the 20-epoch cap
        assert any(r.epochs < 20 for r in report.results)


class TestRealTrainerKnobs:
    def test_lr_decay_knob_builds_schedule(self, tiny_dataset):
        from repro.core.tune import RealTrainer, Trial
        from repro.tensor.optimizers import ExponentialDecaySchedule
        from repro.zoo.builders import build_vgg_mini

        backend = RealTrainer(tiny_dataset, build_vgg_mini, batch_size=16,
                              use_augmentation=False)
        session = backend.start(
            Trial(params={"lr": 0.1, "lr_decay": 0.99, "momentum": 0.9,
                          "weight_decay": 1e-4}, trial_id=1),
            None,
        )
        assert isinstance(session.optimizer.schedule, ExponentialDecaySchedule)
        assert session.optimizer.schedule.decay == 0.99

    def test_plain_lr_stays_constant(self, tiny_dataset):
        from repro.core.tune import RealTrainer, Trial
        from repro.tensor.optimizers import ConstantSchedule
        from repro.zoo.builders import build_vgg_mini

        backend = RealTrainer(tiny_dataset, build_vgg_mini, batch_size=16,
                              use_augmentation=False)
        session = backend.start(Trial(params={"lr": 0.05}, trial_id=1), None)
        assert isinstance(session.optimizer.schedule, ConstantSchedule)
