"""Ablation: successive halving vs random search at equal epoch budget.

An extension beyond the paper (its framework claims extensibility to
popular tuning algorithms): successive halving front-loads many cheap
trials and spends the remaining budget continuing only the promising
ones from their own checkpoints. Compared against plain random search
given the same total number of training epochs.
"""

import numpy as np
import pytest
from _harness import emit

from repro.core.tune import (
    HyperConf,
    RandomSearchAdvisor,
    StudyMaster,
    SuccessiveHalving,
    SurrogateTrainer,
    make_workers,
    run_study,
    section71_space,
)
from repro.paramserver import ParameterServer


def run_halving(seed: int):
    scheduler = SuccessiveHalving(
        initial_trials=32, initial_epochs=3, eta=2, max_rungs=4
    )
    conf = scheduler.conf()
    ps = ParameterServer()
    master = StudyMaster(
        "sh-bench", conf,
        RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(seed)), ps,
        scheduler=scheduler,
    )
    workers = make_workers(master, SurrogateTrainer(seed=seed), ps, conf, 3)
    return run_study(master, workers)


def run_random(epoch_budget: int, seed: int):
    conf = HyperConf(max_trials=10_000, max_epochs_per_trial=50,
                     max_total_epochs=epoch_budget)
    ps = ParameterServer()
    master = StudyMaster(
        "rand-bench", conf,
        RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(seed)), ps,
    )
    workers = make_workers(master, SurrogateTrainer(seed=seed), ps, conf, 3)
    return run_study(master, workers)


@pytest.fixture(scope="module")
def outcomes():
    rows = []
    for seed in range(3):
        halving = run_halving(seed)
        random = run_random(halving.total_epochs, seed)
        rows.append((halving, random))
    return rows


def test_ablation_successive_halving(benchmark, outcomes):
    rows = benchmark.pedantic(lambda: outcomes, rounds=1, iterations=1)
    lines = [f"{'seed':>4} {'SH best':>8} {'SH epochs':>10} {'random best':>12} "
             f"{'random epochs':>14}"]
    halving_bests, random_bests = [], []
    for seed, (halving, random) in enumerate(rows):
        halving_bests.append(halving.best_performance)
        random_bests.append(random.best_performance)
        lines.append(
            f"{seed:>4} {halving.best_performance:>8.4f} {halving.total_epochs:>10} "
            f"{random.best_performance:>12.4f} {random.total_epochs:>14}"
        )
    lines.append("")
    lines.append(f"mean best, halving: {np.mean(halving_bests):.4f}")
    lines.append(f"mean best, random:  {np.mean(random_bests):.4f}")
    emit("ablation_halving", "\n".join(lines))

    # at matched epoch budgets, halving finds at-least-as-good optima
    assert np.mean(halving_bests) >= np.mean(random_bests) - 0.01
    # and its budgets are exact: 32+16+8+4 trials of 3/6/12/24 epochs
    halving_report = rows[0][0]
    assert len(halving_report.results) == 32 + 16 + 8 + 4