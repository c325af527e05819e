"""Multi-core trial execution with ``run_study_parallel``.

Runs the same small real-training study twice — once with the
in-process ``run_study`` loop and once with trials farmed out to the
child processes of a :class:`repro.core.tune.TrialPool` — and
shows that the study reports are identical: same best accuracy, same
epoch counts, same simulated wall time. Only real wall-clock changes
(on a multi-core box the parallel run finishes roughly ``min(workers,
cores)`` times faster, since each trial's NumPy training occupies its
own core).

Run:  python examples/parallel_tuning.py
"""

import os
import time

import numpy as np

from repro.core.tune import (
    HyperConf,
    HyperSpace,
    RandomSearchAdvisor,
    RealTrainer,
    StudyMaster,
    make_workers,
    run_study,
    run_study_parallel,
)
from repro.data import make_image_classification
from repro.paramserver import ParameterServer
from repro.zoo.builders import build_mlp

TRIALS = 6
WORKERS = 3
SEED = 4


def make_study(dataset):
    space = HyperSpace()
    space.add_range_knob("lr", "float", 0.01, 0.3, log_scale=True)
    space.add_range_knob("momentum", "float", 0.0, 0.9)
    conf = HyperConf(max_trials=TRIALS, max_epochs_per_trial=4, delta=0.005)
    param_server = ParameterServer()
    advisor = RandomSearchAdvisor(space, rng=np.random.default_rng(SEED))
    master = StudyMaster("parallel-demo", conf, advisor, param_server)
    backend = RealTrainer(dataset, build_mlp, batch_size=16,
                          use_augmentation=False, seed=SEED)
    workers = make_workers(master, backend, param_server, conf, WORKERS)
    return master, workers


dataset = make_image_classification(
    name="demo", num_classes=3, image_shape=(3, 8, 8),
    train_per_class=24, val_per_class=8, test_per_class=8,
    difficulty=0.3, seed=SEED,
)

results = {}
for mode in ("sequential", "parallel"):
    master, workers = make_study(dataset)
    start = time.perf_counter()
    if mode == "parallel":
        report = run_study_parallel(master, workers, processes=WORKERS)
    else:
        report = run_study(master, workers)
    elapsed = time.perf_counter() - start
    results[mode] = (report, elapsed)
    print(f"{mode:<11} best={report.best_performance:.4f}  "
          f"epochs={report.total_epochs}  sim-wall={report.wall_time:.0f}s  "
          f"real-wall={elapsed:.2f}s")

seq, par = results["sequential"][0], results["parallel"][0]
assert par.best_performance == seq.best_performance
assert par.total_epochs == seq.total_epochs
assert par.wall_time == seq.wall_time
print(f"\nreports identical across {os.cpu_count()} CPU core(s): the parallel "
      "executor changes where epochs run, never what the study decides.")
