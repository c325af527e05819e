"""Tests for the surrogate response-surface trainer."""

import hashlib

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
        trainer = SurrogateTrainer(seed=0)
        trainer.noise = 0.0
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
        trainer = SurrogateTrainer(seed=2)
        trainer.noise = 0.0
        cold = trainer.start(Trial(params=GOOD, trial_id=1), None)
        warm = trainer.start(Trial(params=GOOD, trial_id=1), self._checkpoint(0.85))
        cold_acc = [cold.run_epoch() for _ in range(5)][-1]
        warm_acc = [warm.run_epoch() for _ in range(5)][-1]
        assert warm_acc > cold_acc

    def test_warm_start_lifts_final_accuracy(self):
        trainer = SurrogateTrainer()
        trainer.noise = 0.0
        mediocre = dict(GOOD, lr=0.2)
        cold_final = trainer.final_accuracy(mediocre, trainer.baseline_acc)
        warm_final = trainer.final_accuracy(mediocre, 0.85)
        assert warm_final > cold_final

    def test_bad_hyperparams_degrade_good_checkpoint(self):
        """The failure mode alpha-greedy guards against, inverted:
        a good checkpoint is damaged by bad hyper-parameters."""
        trainer = SurrogateTrainer()
        trainer.noise = 0.0
        damaged = trainer.final_accuracy(BAD, 0.85)
        assert damaged < 0.85

    def test_bad_checkpoint_drags_good_trial_down(self):
        trainer = SurrogateTrainer()
        trainer.noise = 0.0
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
        trainer = SurrogateTrainer()
        trainer.seconds_per_epoch = 12.0
        assert trainer.epoch_cost(Trial(params=GOOD, trial_id=1)) == 12.0


class TestSurfacePinned:
    """The whole response surface on a fixed grid of section 7.1
    parameters, seeds 0-2, cold and warm: quality, asymptote, time
    constant and a 20-epoch curve, digested bit for bit."""

    GRID = [
        {"lr": lr, "momentum": momentum, "weight_decay": wd, "dropout": dropout,
         "init_std": std}
        for lr in (1e-4, 0.003, 0.05, 0.6)
        for momentum, wd in ((0.0, 1e-6), (0.9, 5e-4), (0.99, 1e-2))
        for dropout, std in ((0.0, 0.001), (0.35, 0.05), (0.7, 0.5))
    ]

    def _surface(self, seed):
        trainer = SurrogateTrainer(seed=seed)
        rows = []
        for trial_id, params in enumerate(self.GRID, start=1):
            for checkpoint in (None, {SURROGATE_ACC_KEY: np.array([0.85])}):
                start = 0.85 if checkpoint else 0.10
                session = trainer.start(Trial(params=params, trial_id=trial_id), checkpoint)
                curve = [session.run_epoch() for _ in range(20)]
                rows.append((
                    trainer.quality(params), trainer.final_accuracy(params, start),
                    trainer.time_constant(params), curve,
                    trainer.epoch_cost(session.trial),
                ))
        return rows

    def test_surface_digest(self):
        surfaces = [self._surface(seed) for seed in (0, 1, 2)]
        digest = hashlib.sha256(repr(surfaces).encode()).hexdigest()
        assert digest == "950d08cd8ce18fe0c31850654be192e8800b9160ad6fb847c88d0a0452d91cd9"
