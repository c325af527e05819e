"""Ablation: the parameter server's hot cache under tuning load.

Section 6.2: "hyper-parameters will be cached in memory if they are
accessed frequently" - during collaborative tuning the current-best
checkpoint is fetched by every warm-started trial. This ablation runs
the same CoStudy against a generously sized cache and a zero-byte cache
and reports the hit rates and backing-store traffic.
"""

import numpy as np
import pytest
from _harness import emit

from repro.core.tune import (
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


def run_costudy_with_cache(cache_bytes: int, seed: int = 4):
    conf = HyperConf(max_trials=120, max_epochs_per_trial=50, delta=0.005)
    ps = ParameterServer(cache_bytes=cache_bytes)
    advisor = RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(seed))
    master = StudyMaster("ps-bench", conf, advisor, ps,
                         scheduler=CoStudy(rng=np.random.default_rng(seed + 7)))
    workers = make_workers(master, SurrogateTrainer(seed=seed), ps, conf, 3)
    run_study(master, workers)
    return ps


@pytest.fixture(scope="module")
def servers():
    return {
        "hot cache (256 MB)": run_costudy_with_cache(256 * 1024 * 1024),
        "no cache (0 B)": run_costudy_with_cache(0),
    }


def test_ablation_parameter_server_cache(benchmark, servers):
    results = benchmark.pedantic(lambda: servers, rounds=1, iterations=1)
    lines = [f"{'variant':<20} {'hit rate':>9} {'hits':>7} {'misses':>7} "
             f"{'store reads (B)':>16}"]
    for label, ps in results.items():
        cache = ps.cache_stats()
        lines.append(
            f"{label:<20} {cache['hit_rate']:>9.2f} {cache['hits']:>7} "
            f"{cache['misses']:>7} {ps.store.bytes_read:>16}"
        )
    emit("ablation_pscache", "\n".join(lines))

    hot = results["hot cache (256 MB)"]
    cold = results["no cache (0 B)"]
    # the warm-start key is hot: the cache absorbs almost every read
    assert hot.cache_stats()["hit_rate"] > 0.9
    assert cold.cache_stats()["hit_rate"] == 0.0
    # without the cache every fetch goes to the backing store
    assert cold.store.bytes_read > hot.store.bytes_read
