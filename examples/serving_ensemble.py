"""Section 7.2: the inference service's accuracy/latency trade-off.

Deploys the paper's three-model set (inception_v3, inception_v4,
inception_resnet_v2) behind the serving front end with sine-wave
request arrivals, and compares three dispatch policies:

* the sync-ensemble baseline (all models on every batch, fixed accuracy),
* the async baseline (one model per batch, no ensemble),
* the RL controller, which adapts the ensemble size and batch size.

Run:  python examples/serving_ensemble.py        (about a minute)
"""

import numpy as np

from repro.core.serve import (
    DEFAULT_BATCH_SIZES,
    EnsembleScorer,
    FrontendConfig,
    GreedyAsyncController,
    GreedySyncController,
    LoadGenConfig,
    ReplicaPool,
    RLController,
    ServeFrontend,
    ServingMetrics,
    run_load,
)
from repro.zoo import get_profile

MODEL_NAMES = ("inception_v3", "inception_v4", "inception_resnet_v2")
PROFILES = [get_profile(name) for name in MODEL_NAMES]
TAU = 0.56
PERIOD = 500 * TAU
MIN_RATE = min(p.throughput(min(DEFAULT_BATCH_SIZES)) for p in PROFILES)

scorer = EnsembleScorer(MODEL_NAMES)
print("ensemble accuracy table (Figure 6 panel):")
print(f"  best single model: {scorer.best_single:.4f}")
print(f"  full 3-model ensemble: {scorer.full_ensemble:.4f}\n")


def run(controller_name: str, horizon: float):
    if controller_name == "sync":
        controller = GreedySyncController(PROFILES, DEFAULT_BATCH_SIZES, TAU)
    elif controller_name == "async":
        controller = GreedyAsyncController(PROFILES, DEFAULT_BATCH_SIZES, TAU)
    else:
        controller = RLController(PROFILES, DEFAULT_BATCH_SIZES, TAU, seed=0,
                                  lr=3e-3, gamma=0.0, scorer=scorer,
                                  reward_shaping="per_request", beta=4.0)
        controller.learner.entropy_min = 0.005
        controller.learner.entropy_decay = 0.9997
    latencies = [p.inference_time for p in PROFILES]
    # Serve everything, however late: a deep queue, no deadline shedding.
    config = FrontendConfig(latency=latencies[0], tau=TAU, max_queue=5000,
                            deadline_slack=float("inf"))
    metrics = run_load(
        ServeFrontend(config, policy=controller),
        ReplicaPool(latencies),
        LoadGenConfig(target_rate=MIN_RATE, period=PERIOD, duration=horizon,
                      span=0.1, seed=0),
        trace=ServingMetrics(tau=TAU, accuracy=scorer.accuracy),
    )
    window = horizon * 0.8  # measure after the RL policy has settled
    return metrics, window


HORIZONS = {"sync": 2000.0, "async": 2000.0, "rl": 12000.0}
print(f"arrival: sine around the minimum throughput ({MIN_RATE:.0f} req/s), "
      f"SLO tau={TAU}s\n")
print(f"{'controller':<10} {'accuracy':>9} {'overdue %':>10} {'models/batch':>13}")
for name in ("sync", "async", "rl"):
    metrics, window = run(name, HORIZONS[name])
    rows = metrics.timeline(bucket=PERIOD / 8, start=window)
    mean_models = np.mean([r.mean_models for r in rows if r.serve_rate > 0])
    print(
        f"{name:<10} {metrics.mean_accuracy(window):>9.4f} "
        f"{100 * metrics.overdue_fraction(window):>10.2f} {mean_models:>13.2f}"
    )

print("\nThe RL controller lands near the sync baseline's accuracy while")
print("serving almost every request within the SLO (Figure 14 of the paper).")
