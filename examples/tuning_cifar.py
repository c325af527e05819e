"""Section 7.1: distributed hyper-parameter tuning, Study vs CoStudy.

Tunes the optimisation hyper-parameters of the 8-conv-layer network
(learning rate, momentum, weight decay, dropout, init std) with random
search and Bayesian optimisation, comparing the plain distributed
Study (Algorithm 1) against the collaborative CoStudy (Algorithm 2).
Trials run on the calibrated surrogate trainer, standing in for the
paper's GPU cluster (see DESIGN.md).

Run:  python examples/tuning_cifar.py
"""

import numpy as np

from repro.core.tune import (
    BayesianAdvisor,
    CoStudy,
    HyperConf,
    RandomSearchAdvisor,
    StudyMaster,
    SurrogateTrainer,
    make_workers,
    run_study,
    section71_space,
)
from repro.paramserver import ParameterServer

TRIALS = 120
WORKERS = 3
SEED = 1


def run_one(advisor_name: str, collaborative: bool):
    space = section71_space()
    conf = HyperConf(max_trials=TRIALS, max_epochs_per_trial=50, delta=0.005)
    param_server = ParameterServer()
    advisor_cls = {"random": RandomSearchAdvisor, "bayesian": BayesianAdvisor}[advisor_name]
    advisor = advisor_cls(space, rng=np.random.default_rng(SEED))
    # one master; the scheduler is the policy (none: Algorithm 1)
    scheduler = CoStudy(rng=np.random.default_rng(SEED + 7)) if collaborative else None
    master = StudyMaster("cifar-study", conf, advisor, param_server,
                         scheduler=scheduler)
    backend = SurrogateTrainer(seed=SEED)
    workers = make_workers(master, backend, param_server, conf, WORKERS)
    return run_study(master, workers)


def describe(label: str, report):
    performances = [r.performance for r in report.results]
    high = sum(1 for p in performances if p > 0.5)
    print(
        f"{label:<22} best={max(performances):.4f}  mean={np.mean(performances):.3f}  "
        f"trials>50%={high:>3}/{len(performances)}  "
        f"epochs={report.total_epochs:>5}  wall={report.wall_time / 3600:.1f}h(sim)"
    )


print(f"tuning {TRIALS} trials on {WORKERS} workers (simulated time)\n")
for advisor_name in ("random", "bayesian"):
    study = run_one(advisor_name, collaborative=False)
    costudy = run_one(advisor_name, collaborative=True)
    describe(f"{advisor_name} / Study", study)
    describe(f"{advisor_name} / CoStudy", costudy)
    print()

print("CoStudy reaches comparable-or-better accuracy with a fraction of the")
print("training epochs, because new trials warm-start from the best checkpoint")
print("in the parameter server (Figures 8 and 9 of the paper).")
