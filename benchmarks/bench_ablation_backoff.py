"""Ablation: Algorithm 3's AIMD back-off constant delta.

delta controls how early the greedy batcher fires before the SLO
deadline (the paper suggests delta = 0.1 tau). Too small and batches
complete right at the edge - queueing jitter pushes requests over the
SLO; larger deltas dispatch earlier (smaller batches, lower throughput)
but are safer. The sweep shows overdue fractions across delta values.
"""

import numpy as np
import pytest
from _harness import DEFAULT_BATCH_SIZES, SINGLE_MODEL, TAU, emit, run_policy

from repro.core.serve import GreedySingleController
from repro.zoo import get_profile

DELTAS = (0.0, 0.05, 0.1, 0.3)
HORIZON = 3000.0


def run_with_backoff(delta_fraction: float):
    profile = get_profile(SINGLE_MODEL)
    rate = 0.85 * profile.throughput(max(DEFAULT_BATCH_SIZES))
    controller = GreedySingleController(
        profile, DEFAULT_BATCH_SIZES, TAU, backoff=delta_fraction * TAU
    )
    return run_policy(controller, [profile], rate, HORIZON, seed=3,
                      accuracy=lambda subset: profile.top1_accuracy)


@pytest.fixture(scope="module")
def sweep():
    return {delta: run_with_backoff(delta) for delta in DELTAS}


def test_ablation_backoff_delta(benchmark, sweep):
    results = benchmark.pedantic(lambda: sweep, rounds=1, iterations=1)
    window = HORIZON * 0.3
    lines = [f"{'delta/tau':>10} {'overdue %':>10} {'exceed (ms)':>12} {'mean batch':>11}"]
    stats = {}
    for delta, metrics in results.items():
        dispatches = [d for d in metrics.dispatches if d.time >= window]
        mean_batch = np.mean([d.served for d in dispatches])
        overdue = metrics.overdue_fraction(window)
        stats[delta] = overdue
        lines.append(
            f"{delta:>10.2f} {100 * overdue:>10.2f} "
            f"{1000 * metrics.mean_exceeding_time(window):>12.1f} {mean_batch:>11.1f}"
        )
    emit("ablation_backoff", "\n".join(lines))

    # the paper's delta = 0.1 tau beats no back-off at all
    assert stats[0.1] <= stats[0.0]
    # every configuration still serves the workload
    assert all(m.total_served > 0 for m in results.values())
