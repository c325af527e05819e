"""The Section 7.2 serving experiments on the one loop, and their metrics.

Every run here is ``ServeFrontend`` + ``ReplicaPool`` + a dispatch
policy under ``run_load`` (``serve_helpers.serve``): there is no other
serving environment.
"""

import hashlib
from dataclasses import astuple
from types import SimpleNamespace

import numpy as np
import pytest
from serve_helpers import TAU, serve

from repro.core.serve import (
    DEFAULT_BATCH_SIZES,
    EnsembleScorer,
    GreedyAsyncController,
    GreedySingleController,
    GreedySyncController,
    RLController,
    ServingMetrics,
    batch_reward,
)
from repro.core.serve.metrics import DispatchRecord
from repro.exceptions import ConfigurationError
from repro.zoo import get_profile

NAMES = ("inception_v3", "inception_v4", "inception_resnet_v2")
PROFILES = [get_profile(n) for n in NAMES]


@pytest.fixture(scope="module")
def scorer():
    return EnsembleScorer(NAMES)


def single_run(controller_kind="greedy", target=200.0, horizon=60.0, seed=0, **config):
    """One single-model run; returns ``(metrics, frontend, policy)``."""
    profile = PROFILES[0]
    if controller_kind == "greedy":
        policy = GreedySingleController(profile, DEFAULT_BATCH_SIZES, TAU)
    else:
        policy = RLController([profile], DEFAULT_BATCH_SIZES, TAU, seed=seed)
    metrics, frontend = serve(policy, [profile], target, horizon, seed=seed, **config)
    return metrics, frontend, policy


class TestRewardHelpers:
    def test_batch_reward_equation7(self):
        assert batch_reward(0.8, served=10, overdue=2, beta=1.0) == pytest.approx(6.4)
        assert batch_reward(0.8, served=10, overdue=2, beta=0.0) == pytest.approx(8.0)

    def test_mean_exceeding_time(self):
        """Equation 5 over the served requests, as the figures read it."""
        metrics = ServingMetrics(tau=0.5)
        assert metrics.mean_exceeding_time() == 0.0
        batch = SimpleNamespace(latencies=[0.4, 0.7, 1.0], dispatched=1.0, take=3,
                                overdue=2, batch_size=16, models=(0,))
        metrics.record_batch(1.0, None, batch)
        assert metrics.mean_exceeding_time() == pytest.approx((0.2 + 0.5) / 3)


class TestConservation:
    def test_all_arrivals_eventually_served(self):
        metrics, frontend, _ = single_run("greedy", target=200.0)
        assert metrics.total_arrived > 0
        # the run drains: nothing is left queued or in flight
        assert len(frontend.pending) == 0
        assert metrics.total_served + metrics.dropped == metrics.total_arrived
        # only the last leftovers (fewer than min(B)) can be shed at shutdown
        assert metrics.dropped == frontend.outcomes.get("shutdown", 0) < 16

    def test_dropped_requests_counted(self):
        metrics, frontend, _ = single_run("greedy", target=500.0, horizon=30.0,
                                          max_queue=100)
        refused = frontend.outcomes["queue_full"]
        assert refused > 0
        # refused at the door or served: nothing else happens to a request
        assert metrics.dropped == frontend.shed == refused
        assert metrics.total_served == metrics.total_arrived == frontend.admitted
        # one counter family, every shed labelled with its reason
        from repro import telemetry

        shed = telemetry.get_registry().counter("repro_serve_frontend_shed_total")
        assert shed.snapshot() == {"reason=queue_full,tenant=default": refused}
        assert (
            'repro_serve_frontend_shed_total{reason="queue_full",tenant="default"} '
            f"{refused}"
        ) in telemetry.render_prometheus(telemetry.get_registry()).splitlines()


class TestSingleModelServing:
    def test_greedy_under_capacity_meets_slo(self):
        # inception_v3 serves ~270 req/s at b=64; 150 req/s is easy
        metrics, _, _ = single_run("greedy", target=150.0, horizon=100.0)
        assert metrics.overdue_fraction() < 0.1

    def test_over_capacity_creates_overdue(self):
        metrics, _, _ = single_run("greedy", target=400.0, horizon=100.0)
        assert metrics.overdue_fraction() > 0.2

    def test_latency_accounting(self):
        metrics, _, _ = single_run("greedy", target=100.0, horizon=50.0)
        for record in metrics.dispatches:
            assert record.served > 0
            assert 0 <= record.overdue <= record.served
            assert record.batch_size in DEFAULT_BATCH_SIZES

    def test_rl_controller_runs_and_learns(self):
        metrics, _, controller = single_run("rl", target=150.0, horizon=150.0)
        assert controller.learner.policy_opt.steps > 0
        assert metrics.total_served > 0


class TestMultiModelServing:
    def _multi_run(self, kind, target, scorer, horizon, seed=0):
        if kind == "sync":
            policy = GreedySyncController(PROFILES, DEFAULT_BATCH_SIZES, TAU)
        elif kind == "async":
            policy = GreedyAsyncController(PROFILES, DEFAULT_BATCH_SIZES, TAU)
        else:
            policy = RLController(PROFILES, DEFAULT_BATCH_SIZES, TAU, seed=seed,
                                  scorer=scorer)
        metrics, _ = serve(policy, PROFILES, target, horizon, seed=seed,
                           accuracy=scorer.accuracy)
        return metrics

    def test_sync_controller_always_full_ensemble(self, scorer):
        metrics = self._multi_run("sync", 100.0, scorer, horizon=60.0)
        assert all(len(d.subset) == 3 for d in metrics.dispatches)
        assert metrics.mean_accuracy() == pytest.approx(scorer.full_ensemble, abs=1e-6)

    def test_async_controller_single_models(self, scorer):
        metrics = self._multi_run("async", 300.0, scorer, horizon=60.0)
        assert all(len(d.subset) == 1 for d in metrics.dispatches)
        models_used = {d.subset[0] for d in metrics.dispatches}
        assert len(models_used) == 3  # round-robin touches every model

    def test_multi_model_requires_scorer(self):
        # Equation 7 needs a(M[v]); the learner is who computes it
        with pytest.raises(ConfigurationError, match="EnsembleScorer"):
            RLController(PROFILES, DEFAULT_BATCH_SIZES, TAU)

    def test_rl_dispatches_have_valid_subsets(self, scorer):
        metrics = self._multi_run("rl", 120.0, scorer, horizon=80.0)
        assert {len(r.subset) for r in metrics.dispatches} > {1}  # real subsets
        for record in metrics.dispatches:
            assert 1 <= len(record.subset) <= 3
            assert record.accuracy == pytest.approx(scorer.accuracy(record.subset))

    def test_reward_shaping_validated(self, scorer):
        with pytest.raises(ConfigurationError, match="reward_shaping"):
            RLController(PROFILES, DEFAULT_BATCH_SIZES, TAU, scorer=scorer,
                         reward_shaping="nonsense")


class TestPinnedShortRuns:
    """Short-horizon pins of the policies the figure tables are built from.

    The long tables (benchmarks/results/fig1*.txt) are regenerated on
    demand; these keep the loop they run on from drifting unnoticed.
    """

    def _mean_models(self, metrics):
        return sum(d.served * len(d.subset) for d in metrics.dispatches) / metrics.total_served

    def pin(self, policy, profiles, target, scorer=None):
        accuracy = scorer.accuracy if scorer is not None else (lambda models: 0.0)
        metrics, _ = serve(policy, profiles, target, 200.0, seed=0, period=280.0,
                           accuracy=accuracy)
        return (metrics.total_served, metrics.total_overdue,
                round(self._mean_models(metrics), 4))

    def test_greedy_single(self):
        policy = GreedySingleController(PROFILES[0], DEFAULT_BATCH_SIZES, TAU)
        assert self.pin(policy, PROFILES[:1], 250.0) == PINS["greedy-single"]

    def test_greedy_sync(self, scorer):
        policy = GreedySyncController(PROFILES, DEFAULT_BATCH_SIZES, TAU)
        assert self.pin(policy, PROFILES, 128.0, scorer) == PINS["greedy-sync"]

    def test_greedy_async(self, scorer):
        policy = GreedyAsyncController(PROFILES, DEFAULT_BATCH_SIZES, TAU)
        assert self.pin(policy, PROFILES, 500.0, scorer) == PINS["greedy-async"]

    def test_rl_multi(self, scorer):
        # Seeded actor-critic over three models: every dispatch it made
        policy = RLController(PROFILES, DEFAULT_BATCH_SIZES, TAU, seed=0, scorer=scorer)
        metrics, _ = serve(policy, PROFILES, 150.0, 120.0, seed=0,
                           accuracy=scorer.accuracy)
        digest = hashlib.sha256(
            repr([astuple(d) for d in metrics.dispatches]).encode()
        ).hexdigest()[:16]
        assert (metrics.total_served, metrics.total_overdue, digest) == PINS["rl-multi"]


#: (served, overdue, mean models per served request) after 200 simulated s;
#: the same numbers the deleted second serving loop produced for these runs.
PINS = {
    "greedy-single": (35869, 960, 1.0),
    "greedy-sync": (18365, 3896, 3.0),
    "greedy-async": (71738, 7362, 1.0),
    # (served, overdue, digest of every DispatchRecord) after 120 simulated s
    "rl-multi": (14849, 12540, "90849744aabc35f1"),
}


class TestMetrics:
    def _record(self, time, served=10, overdue=2, subset=(0,), accuracy=0.8):
        return DispatchRecord(time=time, served=served, overdue=overdue,
                              batch_size=16, subset=subset, accuracy=accuracy,
                              exceeding_time_sum=0.5)

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
        rows = metrics.timeline(bucket=1.0, start=0.0)
        assert len(rows) == 2
        assert rows[0].arrival_rate == pytest.approx(10.0)
        assert rows[0].serve_rate == pytest.approx(10.0)
        assert rows[0].mean_models == pytest.approx(2.0)
        assert rows[1].arrival_rate == pytest.approx(20.0)
        assert rows[1].serve_rate == 0.0

    def test_empty_timeline(self):
        rows = ServingMetrics().timeline(bucket=1.0, start=0.0)
        assert len(rows) == 1
        assert all(r.accuracy == 0.0 for r in rows)
