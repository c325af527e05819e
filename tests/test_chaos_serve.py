"""Chaos tests for the serving layer and parameter server.

Covers the graceful-degradation paths: the ensemble drops (and
re-admits) a flapping replica behind its circuit breaker, the batcher
resubmits requests from failed dispatches, parameter-server pushes ride
out injected drops under a retry policy, and the trial pool
resubmits trials whose child process crashed.
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro import chaos, telemetry
from repro.chaos import FaultKind, FaultPlan, FaultRule
from repro.core.serve import (
    DEFAULT_BATCH_SIZES,
    GreedySingleController,
    ServingEnv,
    SineArrival,
)
from repro.core.system import InferenceJobInfo, ModelSpec, Rafiki
from repro.core.tune import HyperConf, PoolTrialExecutor, RealTrainer, Trial, TrialPool
from repro.core.tune.pool import _Worker
from repro.exceptions import (
    DroppedResponse,
    InjectedFault,
    RetryExhaustedError,
    ServingError,
)
from repro.paramserver import ParameterServer
from repro.utils.retry import CircuitBreaker, RetryPolicy
from repro.zoo import get_profile
from repro.zoo.builders import build_mlp

pytestmark = pytest.mark.chaos

TAU = 0.56


def counter_total(name):
    return sum(telemetry.get_registry().counter(name).snapshot().values())


class _FixedNet:
    """A fake replica that always votes for one label."""

    def __init__(self, label):
        self.label = label

    def predict_labels(self, batch):
        return np.full(batch.shape[0], self.label, dtype=np.int64)


def make_ensemble_job(*, threshold=2, recovery=10.0):
    specs = [
        ModelSpec("flaky", "k0", 0.9, "ImageClassification", "d"),
        ModelSpec("steady", "k1", 0.6, "ImageClassification", "d"),
    ]
    info = InferenceJobInfo(
        job_id="infer-x",
        specs=specs,
        networks=[_FixedNet(0), _FixedNet(1)],
        status="running",
        breakers=[
            CircuitBreaker(name=f"infer-x/{s.model_name}",
                           failure_threshold=threshold,
                           recovery_time=recovery)
            for s in specs
        ],
    )
    return info


class TestReplicaDegradation:
    def test_flapping_replica_dropped_then_readmitted(self, manual_clock):
        system = Rafiki(nodes=1, gpus_per_node=1)
        info = make_ensemble_job(threshold=2, recovery=10.0)
        batch = np.zeros((4, 3, 8, 8))
        plan = FaultPlan(
            [FaultRule("serve.model.flaky", FaultKind.EXCEPTION, max_faults=2)]
        )
        with chaos.active(plan):
            # two failing calls trip the flaky replica's breaker; the
            # steady replica keeps answering alone
            for _ in range(2):
                labels, votes, voted = system._predict(info, batch)
                assert labels.tolist() == [1, 1, 1, 1]
                assert votes.shape == (1, 4)
                assert voted == [1]
            assert info.live_replicas() == [1]
            # while open, the flaky replica is not even attempted
            system._predict(info, batch)
            assert plan.invocations("serve.model.flaky") == 2
            # after the recovery window the probe succeeds (the fault
            # budget is spent) and the replica rejoins the vote
            manual_clock.advance(10.0)
            labels, votes, voted = system._predict(info, batch)
            assert votes.shape == (2, 4)
            assert voted == [0, 1]
            assert info.live_replicas() == [0, 1]
            # the higher-accuracy replica dominates the weighted vote
            assert labels.tolist() == [0, 0, 0, 0]
        assert counter_total("repro_serve_replica_errors_total") == 2

    def test_all_replicas_dead_raises_serving_error(self):
        system = Rafiki(nodes=1, gpus_per_node=1)
        info = make_ensemble_job(threshold=1)
        batch = np.zeros((2, 3, 8, 8))
        plan = FaultPlan([
            FaultRule("serve.model.flaky", FaultKind.EXCEPTION),
            FaultRule("serve.model.steady", FaultKind.EXCEPTION),
        ])
        with chaos.active(plan):
            with pytest.raises(ServingError):
                system._predict(info, batch)
            assert info.live_replicas() == []
            # breakers open now: replicas are skipped, not re-executed
            with pytest.raises(ServingError):
                system._predict(info, batch)
        assert plan.invocations("serve.model.flaky") == 1
        assert plan.invocations("serve.model.steady") == 1

    def test_live_replica_gauge_tracks_degradation(self):
        system = Rafiki(nodes=1, gpus_per_node=1)
        info = make_ensemble_job(threshold=1)
        batch = np.zeros((2, 3, 8, 8))
        plan = FaultPlan(
            [FaultRule("serve.model.flaky", FaultKind.EXCEPTION, max_faults=1)]
        )
        with chaos.active(plan):
            system._predict(info, batch)
        gauge = telemetry.get_registry().gauge("repro_serve_replicas_live")
        assert gauge.value(job="infer-x") == 1


def serve_env(seed=0, dispatch_retry=None, target=80.0):
    profile = get_profile("inception_v3")
    arrival = SineArrival(target, period=60.0, rng=np.random.default_rng(seed))
    controller = GreedySingleController(profile, DEFAULT_BATCH_SIZES, TAU)
    return ServingEnv([profile], controller, arrival, TAU, DEFAULT_BATCH_SIZES,
                      dispatch_retry=dispatch_retry)


class TestDispatchResubmission:
    RETRY = dict(base_delay=0.005, max_delay=0.1, jitter=0.0)

    def test_failed_dispatches_requeue_and_conserve_requests(self):
        plan = FaultPlan(
            [FaultRule("serve.dispatch", FaultKind.EXCEPTION, probability=0.1,
                       max_faults=10)],
            seed=0,
        )
        env = serve_env(
            dispatch_retry=RetryPolicy(max_attempts=4, **self.RETRY)
        )
        with chaos.active(plan):
            metrics = env.run(horizon=30.0)
        assert env.queue.total_requeued > 0
        assert metrics.dropped == 0
        # every re-queued request is eventually served
        assert metrics.total_served == metrics.total_arrived
        assert counter_total("repro_serve_dispatch_retries_total") == \
            plan.faults_injected()

    def test_poisoned_dispatch_is_shed_not_stalled(self):
        plan = FaultPlan([FaultRule("serve.dispatch", FaultKind.EXCEPTION)])
        env = serve_env(dispatch_retry=RetryPolicy(max_attempts=2, **self.RETRY))
        with chaos.active(plan):
            metrics = env.run(horizon=5.0)
        # with every dispatch failing, batches are shed after
        # max_attempts so the run terminates instead of looping forever
        assert metrics.total_served == 0
        assert metrics.dropped > 0
        dropped = telemetry.get_registry().counter(
            "repro_serve_requests_dropped_total"
        )
        assert dropped.snapshot() == {"reason=dispatch_failed": metrics.dropped}
        assert (
            f'repro_serve_requests_dropped_total{{reason="dispatch_failed"}} '
            f"{metrics.dropped}"
        ) in telemetry.render_prometheus(telemetry.get_registry()).splitlines()

    def test_injected_latency_stretches_completions(self):
        bump = 1.0
        plan = FaultPlan(
            [FaultRule("serve.dispatch", FaultKind.LATENCY, latency=bump,
                       max_faults=5)]
        )
        env = serve_env()
        with chaos.active(plan):
            metrics = env.run(horizon=20.0)
        assert metrics.total_served == metrics.total_arrived
        assert metrics.latency_quantile(1.0) >= bump

    def test_same_seed_serve_runs_match(self):
        def trace():
            plan = FaultPlan(
                [FaultRule("serve.dispatch", FaultKind.EXCEPTION,
                           probability=0.15, max_faults=20)],
                seed=2,
            )
            env = serve_env(
                seed=2, dispatch_retry=RetryPolicy(max_attempts=4, **self.RETRY)
            )
            with chaos.active(plan):
                metrics = env.run(horizon=20.0)
            return (metrics.total_served, env.queue.total_requeued,
                    metrics.dropped, plan.trace())

        assert trace() == trace()


class TestParamServerRetries:
    def push_policy(self, attempts=4):
        return RetryPolicy(max_attempts=attempts, jitter=0.0,
                           retry_on=(InjectedFault,), seed=0)

    def state(self):
        return {"w": np.ones((4, 4))}

    def test_dropped_pushes_are_retried_to_success(self):
        ps = ParameterServer(retry=self.push_policy())
        plan = FaultPlan(
            [FaultRule("paramserver.push", FaultKind.DROP, probability=0.3)],
            seed=1,
        )
        with chaos.active(plan):
            for i in range(20):
                ps.put(f"k{i}", self.state())
        assert sorted(ps.keys()) == sorted(f"k{i}" for i in range(20))
        assert plan.faults_injected() > 0
        attempts = telemetry.get_registry().counter("repro_retry_attempts_total")
        assert attempts.value(name="paramserver.push") == \
            20 + plan.faults_injected()

    def test_push_without_retry_propagates_the_drop(self):
        ps = ParameterServer()
        plan = FaultPlan([FaultRule("paramserver.push", FaultKind.DROP)])
        with chaos.active(plan):
            with pytest.raises(DroppedResponse):
                ps.put("k", self.state())
        assert not ps.has("k")

    def test_persistent_drops_exhaust_the_policy(self):
        ps = ParameterServer(retry=self.push_policy(attempts=2))
        plan = FaultPlan([FaultRule("paramserver.push", FaultKind.DROP)])
        with chaos.active(plan):
            with pytest.raises(RetryExhaustedError):
                ps.put("k", self.state())
        assert counter_total("repro_retry_exhausted_total") == 1

    def test_pull_faults_are_retried_and_value_intact(self):
        ps = ParameterServer(retry=self.push_policy())
        ps.put("k", {"w": np.arange(6.0).reshape(2, 3)})
        plan = FaultPlan(
            [FaultRule("paramserver.pull", FaultKind.EXCEPTION, max_faults=2)]
        )
        with chaos.active(plan):
            fetched = ps.get("k")
        assert np.array_equal(fetched["w"], np.arange(6.0).reshape(2, 3))
        assert plan.invocations("paramserver.pull") == 3


class TestParallelExecutorCrashHandling:
    """The pool's record demultiplexer, hand-fed: no child processes."""

    @pytest.fixture
    def pool(self, tiny_dataset):
        pool = TrialPool(processes=1, trial_retries=1)
        self.spec = PoolTrialExecutor(
            RealTrainer(tiny_dataset, build_mlp), HyperConf(), pool=pool
        )._build_spec()
        parent_end, self.child_end = multiprocessing.Pipe()
        self.worker = _Worker(proc=None, conn=parent_end)
        pool._workers.append(self.worker)
        yield pool
        pool._workers.clear()
        parent_end.close()
        self.child_end.close()
        pool.shutdown()

    def feed(self, pool, *record):
        pool._route(self.worker, pickle.dumps(record))

    def dispatched_generation(self):
        assert self.child_end.poll(1.0)
        _spec, _trial, _init, generation, _dataset = self.child_end.recv()
        return generation

    def error_counter(self):
        return telemetry.get_registry().counter("repro_tune_pool_trial_errors_total")

    def test_crash_resubmits_and_discards_replayed_epochs(self, pool):
        pool.trial_retries = 2
        pool.submit(self.spec, Trial(params={}, trial_id=7), None)
        assert self.dispatched_generation() == 0
        for accuracy in (0.1, 0.2, 0.3):
            self.feed(pool, "epoch", 0, 7, accuracy, None)
        delivered = [pool.await_epoch(7)[0] for _ in range(2)]  # one still buffered

        self.feed(pool, "error", 0, 7, "SimulatedCrash()")
        assert self.dispatched_generation() == 1
        assert self.error_counter().value(outcome="resubmitted") == 1
        state = pool._trials[7]
        assert state.skip == 2 and not state.records
        # the deterministic re-run replays the two consumed epochs
        # (discarded) before fresh ones reach the buffer again; what the
        # crashed run still had in the pipe is dropped as stale
        self.feed(pool, "epoch", 0, 7, 0.99, None)
        for accuracy in (0.1, 0.2, 0.3):
            self.feed(pool, "epoch", 1, 7, accuracy, None)
        delivered.append(pool.await_epoch(7)[0])

        # a second crash skips everything consumed since submission,
        # not only what was consumed since the first crash
        self.feed(pool, "error", 1, 7, "SimulatedCrash()")
        assert self.dispatched_generation() == 2
        assert state.skip == 3
        for accuracy in (0.1, 0.2, 0.3, 0.4):
            self.feed(pool, "epoch", 2, 7, accuracy, None)
        delivered.append(pool.await_epoch(7)[0])
        assert delivered == [0.1, 0.2, 0.3, 0.4]

    def test_repeated_crashes_exhaust_retries(self, pool):
        pool.submit(self.spec, Trial(params={}, trial_id=3), None)
        self.feed(pool, "error", 0, 3, "boom")  # first crash: resubmitted
        assert self.dispatched_generation() == 0
        assert self.dispatched_generation() == 1
        with pytest.raises(RuntimeError, match="trial 3 failed"):
            self.feed(pool, "error", 1, 3, "boom")
        assert self.error_counter().value(outcome="resubmitted") == 1
        assert self.error_counter().value(outcome="raised") == 1

    def test_crash_of_unknown_trial_raises_immediately(self, pool):
        with pytest.raises(RuntimeError, match="trial 99 failed"):
            self.feed(pool, "error", 0, 99, "boom")
