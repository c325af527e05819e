"""Tests for the serving environment, controllers and metrics."""

import numpy as np
import pytest

from repro import telemetry
from repro.core.serve import (
    DEFAULT_BATCH_SIZES,
    EnsembleScorer,
    GreedyAsyncController,
    GreedySingleController,
    GreedySyncController,
    RLController,
    ServingEnv,
    ServingMetrics,
    SineArrival,
    batch_reward,
    count_overdue,
    mean_exceeding_time,
)
from repro.core.serve.metrics import DispatchRecord
from repro.exceptions import ConfigurationError
from repro.zoo import get_profile

TAU = 0.56
NAMES = ("inception_v3", "inception_v4", "inception_resnet_v2")


@pytest.fixture(scope="module")
def scorer():
    return EnsembleScorer(NAMES)


def single_env(controller_kind="greedy", target=200.0, seed=0, **env_kwargs):
    profile = get_profile("inception_v3")
    arrival = SineArrival(target, period=200.0, rng=np.random.default_rng(seed))
    if controller_kind == "greedy":
        controller = GreedySingleController(profile, DEFAULT_BATCH_SIZES, TAU)
    else:
        controller = RLController([profile], DEFAULT_BATCH_SIZES, TAU, seed=seed)
    return ServingEnv([profile], controller, arrival, TAU, DEFAULT_BATCH_SIZES,
                      **env_kwargs)


class TestRewardHelpers:
    def test_count_overdue(self):
        assert count_overdue(np.array([0.1, 0.6, 0.7]), tau=0.5) == 2

    def test_batch_reward_equation7(self):
        assert batch_reward(0.8, served=10, overdue=2, beta=1.0) == pytest.approx(6.4)
        assert batch_reward(0.8, served=10, overdue=2, beta=0.0) == pytest.approx(8.0)

    def test_mean_exceeding_time(self):
        latencies = np.array([0.4, 0.7, 1.0])
        assert mean_exceeding_time(latencies, tau=0.5) == pytest.approx((0.2 + 0.5) / 3)
        assert mean_exceeding_time(np.array([]), 0.5) == 0.0


class TestConservation:
    def test_all_arrivals_eventually_served(self):
        env = single_env("greedy", target=200.0)
        metrics = env.run(horizon=60.0)
        assert metrics.total_arrived > 0
        assert metrics.total_served == metrics.total_arrived - len(env.queue)
        # after the drain slack, nearly everything is served
        assert len(env.queue) < 16

    def test_dropped_requests_counted(self):
        env = single_env("greedy", target=500.0, queue_capacity=100)
        metrics = env.run(horizon=30.0)
        assert metrics.dropped > 0
        assert metrics.total_served + metrics.dropped + len(env.queue) == (
            metrics.total_arrived + metrics.dropped
        )
        # one counter family, every drop labelled with its reason
        dropped = telemetry.get_registry().counter(
            "repro_serve_requests_dropped_total"
        )
        assert dropped.snapshot() == {"reason=queue_full": metrics.dropped}
        assert (
            f'repro_serve_requests_dropped_total{{reason="queue_full"}} '
            f"{metrics.dropped}"
        ) in telemetry.render_prometheus(telemetry.get_registry()).splitlines()


class TestSingleModelServing:
    def test_greedy_under_capacity_meets_slo(self):
        # inception_v3 serves ~270 req/s at b=64; 150 req/s is easy
        env = single_env("greedy", target=150.0)
        metrics = env.run(horizon=100.0)
        assert metrics.overdue_fraction() < 0.1

    def test_over_capacity_creates_overdue(self):
        env = single_env("greedy", target=400.0)
        metrics = env.run(horizon=100.0)
        assert metrics.overdue_fraction() > 0.2

    def test_latency_accounting(self):
        env = single_env("greedy", target=100.0)
        metrics = env.run(horizon=50.0)
        for record in metrics.dispatches:
            assert record.served > 0
            assert 0 <= record.overdue <= record.served
            assert record.batch_size in DEFAULT_BATCH_SIZES

    def test_rl_controller_runs_and_learns(self):
        env = single_env("rl", target=150.0)
        metrics = env.run(horizon=150.0)
        controller = env.controller
        assert controller.learner.updates > 0
        assert metrics.total_served > 0


class TestMultiModelServing:
    def _multi_env(self, kind, target, scorer, seed=0, **kwargs):
        profiles = [get_profile(n) for n in NAMES]
        arrival = SineArrival(target, period=200.0, rng=np.random.default_rng(seed))
        if kind == "sync":
            controller = GreedySyncController(profiles, DEFAULT_BATCH_SIZES, TAU)
        elif kind == "async":
            controller = GreedyAsyncController(profiles, DEFAULT_BATCH_SIZES, TAU)
        else:
            controller = RLController(profiles, DEFAULT_BATCH_SIZES, TAU, seed=seed)
        return ServingEnv(profiles, controller, arrival, TAU, DEFAULT_BATCH_SIZES,
                          scorer=scorer, **kwargs)

    def test_sync_controller_always_full_ensemble(self, scorer):
        env = self._multi_env("sync", 100.0, scorer)
        metrics = env.run(horizon=60.0)
        assert all(len(d.subset) == 3 for d in metrics.dispatches)
        assert metrics.mean_accuracy() == pytest.approx(scorer.full_ensemble, abs=1e-6)

    def test_async_controller_single_models(self, scorer):
        env = self._multi_env("async", 300.0, scorer)
        metrics = env.run(horizon=60.0)
        assert all(len(d.subset) == 1 for d in metrics.dispatches)
        models_used = {d.subset[0] for d in metrics.dispatches}
        assert len(models_used) == 3  # round-robin touches every model

    def test_multi_model_requires_scorer(self):
        profiles = [get_profile(n) for n in NAMES]
        arrival = SineArrival(100.0, period=200.0)
        controller = GreedySyncController(profiles, DEFAULT_BATCH_SIZES, TAU)
        with pytest.raises(ConfigurationError, match="EnsembleScorer"):
            ServingEnv(profiles, controller, arrival, TAU, DEFAULT_BATCH_SIZES)

    def test_rl_dispatches_have_valid_subsets(self, scorer):
        env = self._multi_env("rl", 120.0, scorer)
        metrics = env.run(horizon=80.0)
        for record in metrics.dispatches:
            assert 1 <= len(record.subset) <= 3
            assert record.accuracy == pytest.approx(scorer.accuracy(record.subset))

    def test_reward_shaping_validated(self, scorer):
        profiles = [get_profile(n) for n in NAMES]
        arrival = SineArrival(100.0, period=200.0)
        controller = GreedySyncController(profiles, DEFAULT_BATCH_SIZES, TAU)
        with pytest.raises(ConfigurationError, match="reward_shaping"):
            ServingEnv(profiles, controller, arrival, TAU, DEFAULT_BATCH_SIZES,
                       scorer=scorer, reward_shaping="nonsense")


class TestMetrics:
    def _record(self, time, served=10, overdue=2, subset=(0,), accuracy=0.8):
        return DispatchRecord(time=time, served=served, overdue=overdue,
                              batch_size=16, subset=subset, accuracy=accuracy,
                              reward=0.0, exceeding_time_sum=0.5)

    def test_aggregates(self):
        metrics = ServingMetrics()
        metrics.record_arrivals(0.0, 30)
        metrics.record_dispatch(self._record(1.0))
        metrics.record_dispatch(self._record(2.0, served=20, overdue=0, accuracy=0.9))
        assert metrics.total_arrived == 30
        assert metrics.total_served == 30
        assert metrics.total_overdue == 2
        assert metrics.overdue_fraction() == pytest.approx(2 / 30)
        expected_acc = (10 * 0.8 + 20 * 0.9) / 30
        assert metrics.mean_accuracy() == pytest.approx(expected_acc)

    def test_since_filter(self):
        metrics = ServingMetrics()
        metrics.record_dispatch(self._record(1.0, accuracy=0.5))
        metrics.record_dispatch(self._record(10.0, accuracy=0.9))
        assert metrics.mean_accuracy(since=5.0) == pytest.approx(0.9)

    def test_timeline_buckets(self):
        metrics = ServingMetrics()
        metrics.record_arrivals(0.5, 10)
        metrics.record_arrivals(1.5, 20)
        metrics.record_dispatch(self._record(0.7, served=10, subset=(0, 1)))
        rows = metrics.timeline(bucket=1.0, start=0.0, end=2.0)
        assert len(rows) == 2
        assert rows[0].arrival_rate == pytest.approx(10.0)
        assert rows[0].serve_rate == pytest.approx(10.0)
        assert rows[0].mean_models == pytest.approx(2.0)
        assert rows[1].arrival_rate == pytest.approx(20.0)
        assert rows[1].serve_rate == 0.0

    def test_empty_timeline(self):
        rows = ServingMetrics().timeline(bucket=1.0, start=0.0, end=3.0)
        assert len(rows) == 3
        assert all(r.accuracy == 0.0 for r in rows)
