"""Tests for the surrogate response-surface trainer."""

import numpy as np
import pytest

from repro.core.tune import SurrogateTrainer, Trial
from repro.core.tune.surrogate import SURROGATE_ACC_KEY

GOOD = {"lr": 0.05, "momentum": 0.9, "weight_decay": 5e-4, "dropout": 0.35,
        "init_std": 0.05}
BAD = {"lr": 1e-4, "momentum": 0.0, "weight_decay": 1e-2, "dropout": 0.7,
       "init_std": 0.5}


def run_session(trainer, params, epochs=60, init_state=None):
    session = trainer.start(Trial(params=params, trial_id=1), init_state)
    for _ in range(epochs):
        session.run_epoch()
    return session


class TestQuality:
    def test_peak_at_textbook_settings(self):
        trainer = SurrogateTrainer()
        assert trainer.quality(GOOD) == pytest.approx(1.0)
        assert trainer.quality(BAD) < 0.3

    def test_quality_monotone_in_lr_distance(self):
        trainer = SurrogateTrainer()
        base = dict(GOOD)
        scores = []
        for lr in (0.05, 0.2, 0.8):
            base["lr"] = lr
            scores.append(trainer.quality(base))
        assert scores[0] > scores[1] > scores[2]

    def test_unknown_knobs_ignored(self):
        trainer = SurrogateTrainer()
        assert trainer.quality({"batch_size": 32}) == 1.0


class TestCurves:
    def test_good_trial_reaches_high_accuracy(self):
        session = run_session(SurrogateTrainer(seed=1), GOOD)
        assert session.best_performance > 0.88

    def test_bad_trial_stays_low(self):
        session = run_session(SurrogateTrainer(seed=1), BAD)
        assert session.best_performance < 0.55

    def test_curve_rises_over_epochs(self):
        trainer = SurrogateTrainer(noise=0.0, seed=0)
        session = trainer.start(Trial(params=GOOD, trial_id=1), None)
        early = session.run_epoch()
        for _ in range(30):
            late = session.run_epoch()
        assert late > early

    def test_off_lr_converges_slower(self):
        trainer = SurrogateTrainer()
        slow = dict(GOOD, lr=0.001)
        assert trainer.time_constant(slow) > trainer.time_constant(GOOD)


class TestWarmStart:
    def _checkpoint(self, accuracy):
        return {SURROGATE_ACC_KEY: np.array([accuracy])}

    def test_warm_start_from_good_checkpoint_speeds_up(self):
        trainer = SurrogateTrainer(noise=0.0, seed=2)
        cold = trainer.start(Trial(params=GOOD, trial_id=1), None)
        warm = trainer.start(Trial(params=GOOD, trial_id=1), self._checkpoint(0.85))
        cold_acc = [cold.run_epoch() for _ in range(5)][-1]
        warm_acc = [warm.run_epoch() for _ in range(5)][-1]
        assert warm_acc > cold_acc

    def test_warm_start_lifts_final_accuracy(self):
        trainer = SurrogateTrainer(noise=0.0)
        mediocre = dict(GOOD, lr=0.2)
        cold_final = trainer.final_accuracy(mediocre, trainer.baseline_acc)
        warm_final = trainer.final_accuracy(mediocre, 0.85)
        assert warm_final > cold_final

    def test_bad_hyperparams_degrade_good_checkpoint(self):
        """The failure mode alpha-greedy guards against, inverted:
        a good checkpoint is damaged by bad hyper-parameters."""
        trainer = SurrogateTrainer(noise=0.0)
        damaged = trainer.final_accuracy(BAD, 0.85)
        assert damaged < 0.85

    def test_bad_checkpoint_drags_good_trial_down(self):
        trainer = SurrogateTrainer(noise=0.0)
        from_bad = trainer.final_accuracy(GOOD, 0.15)
        from_scratch = trainer.final_accuracy(GOOD, trainer.baseline_acc)
        # starting slightly above baseline barely helps...
        assert from_bad == pytest.approx(from_scratch, abs=0.05)

    def test_state_dict_carries_current_accuracy(self):
        trainer = SurrogateTrainer(seed=3)
        session = run_session(trainer, GOOD, epochs=40)
        carried = float(session.state_dict()[SURROGATE_ACC_KEY][0])
        assert carried == pytest.approx(session.best_performance, abs=0.05)

    def test_epoch_cost_constant(self):
        trainer = SurrogateTrainer(seconds_per_epoch=12.0)
        assert trainer.epoch_cost(Trial(params=GOOD, trial_id=1)) == 12.0
