"""Chaos tests for the serving layer and parameter server.

Covers the graceful-degradation paths: the ensemble drops (and
re-admits) a flapping replica behind its circuit breaker, the front end
resubmits requests from failed dispatches under every dispatch policy, parameter-server pushes ride
out injected drops under a retry policy, and the trial pool
resubmits trials whose child process crashed.
"""

import multiprocessing
import pickle
from dataclasses import dataclass, field

import numpy as np
import pytest
from serve_helpers import TAU, deploy_untrained, serve

from repro import chaos, telemetry
from repro.chaos import FaultKind, FaultPlan, FaultRule
from repro.core.serve import (
    DEFAULT_BATCH_SIZES,
    EnsembleScorer,
    FrontendConfig,
    GreedyAsyncController,
    GreedySingleController,
    GreedySyncController,
    LoadGenConfig,
    LoadTrace,
    ReplicaPool,
    RLController,
    ServeFrontend,
    run_multi_load,
)
from repro.core.system import InferenceJobInfo, ModelSpec, Rafiki
from repro.core.tune import HyperConf, PoolTrialExecutor, RealTrainer, Trial, TrialPool
from repro.core.tune import pool as pool_module
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

    def test_live_replica_gauge_tracks_degradation(self, tiny_dataset):
        # The gauge is a reader registered at deploy, so deploy for real.
        system = Rafiki(seed=5)
        infer_id = deploy_untrained(system, tiny_dataset, replicas=2)
        info = system.get_inference_job(infer_id)
        gauge = telemetry.get_registry().gauge("repro_serve_replicas_live")
        assert gauge.value(job=infer_id) == 2
        info.breakers[0].failure_threshold = 1
        plan = FaultPlan([
            FaultRule(f"serve.model.{info.specs[0].model_name}", FaultKind.EXCEPTION,
                      max_faults=1)
        ])
        with chaos.active(plan):
            system.query(infer_id, tiny_dataset.test_x[:2])
        assert gauge.value(job=infer_id) == 1


def serve_run(seed=0, dispatch_retry=None, target=80.0, horizon=30.0):
    """A greedy single-model run on the one loop; ``(trace, frontend)``."""
    profile = get_profile("inception_v3")
    config = dict(dispatch_retry=dispatch_retry) if dispatch_retry is not None else {}
    policy = GreedySingleController(profile, DEFAULT_BATCH_SIZES, TAU)
    return serve(policy, [profile], target, horizon, seed=seed, period=60.0,
                 trace=LoadTrace(TAU, horizon, "open"), **config)


class TestDispatchResubmission:
    RETRY = dict(base_delay=0.005, max_delay=0.1, jitter=0.0)

    def test_failed_dispatches_requeue_and_conserve_requests(self):
        plan = FaultPlan(
            [FaultRule("frontend.dispatch", FaultKind.EXCEPTION, probability=0.1,
                       max_faults=10)],
            seed=0,
        )
        with chaos.active(plan):
            trace, frontend = serve_run(
                dispatch_retry=RetryPolicy(max_attempts=4, **self.RETRY)
            )
        assert plan.faults_injected() > 0
        assert counter_total("repro_serve_frontend_dispatch_retries_total") == \
            plan.faults_injected()
        # every re-queued request is eventually served, exactly once
        summary = trace.summary()
        assert summary["shed"] == 0
        assert summary["served"] == summary["offered"] == frontend.admitted
        assert sorted(r.seq for r in trace.records) == list(range(1, frontend.admitted + 1))

    def test_poisoned_dispatch_is_shed_not_stalled(self):
        plan = FaultPlan([FaultRule("frontend.dispatch", FaultKind.EXCEPTION)])
        with chaos.active(plan):
            trace, frontend = serve_run(
                dispatch_retry=RetryPolicy(max_attempts=2, **self.RETRY), horizon=5.0
            )
        # with every dispatch failing, batches are shed after
        # max_attempts so the run terminates instead of looping forever
        summary = trace.summary()
        assert summary["served"] == 0
        dropped = summary["shed_by_reason"]["dispatch_failed"]
        assert dropped > 0
        assert dropped + summary["shed_by_reason"].get("shutdown", 0) == frontend.admitted
        shed = telemetry.get_registry().counter("repro_serve_frontend_shed_total")
        assert shed.value(reason="dispatch_failed", tenant="default") == dropped
        assert (
            'repro_serve_frontend_shed_total{reason="dispatch_failed",tenant="default"} '
            f"{dropped}"
        ) in telemetry.render_prometheus(telemetry.get_registry()).splitlines()

    def test_injected_latency_stretches_completions(self):
        bump = 1.0
        plan = FaultPlan(
            [FaultRule("frontend.dispatch", FaultKind.LATENCY, latency=bump,
                       max_faults=5)]
        )
        with chaos.active(plan):
            trace, _ = serve_run(horizon=20.0)
        summary = trace.summary()
        assert summary["served"] == summary["offered"]
        assert max(r.latency for r in trace.records) >= bump

    def test_same_seed_serve_runs_match(self):
        def run():
            plan = FaultPlan(
                [FaultRule("frontend.dispatch", FaultKind.EXCEPTION,
                           probability=0.15, max_faults=20)],
                seed=2,
            )
            with chaos.active(plan):
                trace, frontend = serve_run(
                    seed=2, dispatch_retry=RetryPolicy(max_attempts=4, **self.RETRY),
                    horizon=20.0,
                )
            return trace.fingerprint(), frontend.outcomes, plan.trace()

        assert run() == run()


NAMES = ("inception_v3", "inception_v4", "inception_resnet_v2")

#: name -> (policy factory, how many of NAMES it serves on)
POLICIES = {
    "default": (lambda p, s: None, 1),
    "greedy-single": (lambda p, s: GreedySingleController(p[0], DEFAULT_BATCH_SIZES, TAU), 1),
    "greedy-sync": (lambda p, s: GreedySyncController(p, DEFAULT_BATCH_SIZES, TAU), 3),
    "greedy-async": (lambda p, s: GreedyAsyncController(p, DEFAULT_BATCH_SIZES, TAU), 3),
    "rl": (lambda p, s: RLController(p, DEFAULT_BATCH_SIZES, TAU, seed=3, scorer=s), 3),
}
FAULTS = {
    "clean": [],
    "exceptions": [FaultRule("frontend.dispatch", FaultKind.EXCEPTION,
                             probability=0.2, max_faults=25)],
    "latency": [FaultRule("frontend.dispatch", FaultKind.LATENCY,
                          probability=0.3, latency=0.05)],
}


@dataclass
class _PlanLog(LoadTrace):
    """A load trace that also keeps which requests rode in which batch."""

    plans: list = field(default_factory=list)

    def record_batch(self, time, plan, outcome):
        super().record_batch(time, plan, outcome)
        self.plans.append((plan.dispatched, [r.seq for r in plan.requests], outcome))


class TestOneLoopConservation:
    """Every policy, clean and under dispatch faults, on the one loop."""

    def run(self, policy_name, fault_name):
        make, count = POLICIES[policy_name]
        profiles = [get_profile(n) for n in NAMES[:count]]
        scorer = EnsembleScorer(NAMES) if count == 3 else None
        latencies = [p.inference_time for p in profiles]
        frontend = ServeFrontend(
            FrontendConfig(latency=latencies[0], tau=TAU, max_queue=256),
            policy=make(profiles, scorer),
        )
        loads = [
            LoadGenConfig(target_rate=rate, period=20.0, duration=20.0, span=0.1,
                          seed=seed, clients=3, tenant=tenant)
            for tenant, rate, seed in (("acme", 90.0, 5), ("globex", 40.0, 6))
        ]
        trace = _PlanLog(TAU, 20.0, "multi")
        plan = FaultPlan(FAULTS[fault_name], seed=11)
        with chaos.active(plan):
            run_multi_load(frontend, ReplicaPool(latencies), loads, trace=trace)
        return trace, frontend, plan

    @pytest.mark.parametrize("fault_name", FAULTS)
    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_requests_are_conserved_in_fifo_order(self, policy_name, fault_name):
        trace, frontend, plan = self.run(policy_name, fault_name)
        assert (plan.faults_injected() > 0) == (fault_name != "clean")
        # every offered request has exactly one terminal outcome, per tenant
        for tenant in ("acme", "globex"):
            summary = trace.summary(tenant)
            assert summary["served"] > 0
            assert summary["offered"] == summary["served"] + summary["shed"]
            ledger = frontend.tenant_outcomes[tenant]
            refused = sum(n for reason, n in ledger.items()
                          if reason in ("deadline", "queue_full", "fault"))
            assert summary["offered"] == ledger["admitted"] + refused
            assert ledger["admitted"] == ledger["served"] + sum(
                ledger.get(reason, 0) for reason in ("dispatch_failed", "shutdown"))
        admitted = [r.seq for r in trace.records if r.seq]
        assert sorted(admitted) == list(range(1, frontend.admitted + 1))
        # no request rides in two batches; batches leave the queue in FIFO order
        plans = sorted(trace.plans, key=lambda entry: entry[1][0])
        flat = [seq for _, seqs, _ in plans for seq in seqs]
        assert flat == sorted(set(flat))
        times = [dispatched for dispatched, _, _ in plans]
        assert times == sorted(times)
        # the policy was told the facts of what it dispatched
        for _, seqs, outcome in plans:
            assert outcome.take == len(seqs)
            assert outcome.overdue == sum(l > TAU for l in outcome.latencies)

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_same_seed_same_trace_under_faults(self, policy_name):
        first, _, plan_a = self.run(policy_name, "exceptions")
        second, _, plan_b = self.run(policy_name, "exceptions")
        assert first.fingerprint() == second.fingerprint()
        assert plan_a.trace() == plan_b.trace()


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
    def pool(self, tiny_dataset, monkeypatch):
        monkeypatch.setattr(pool_module, "TRIAL_ATTEMPTS", 2)
        pool = TrialPool(processes=1)
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

    def test_crash_resubmits_and_discards_replayed_epochs(self, pool, monkeypatch):
        """Each record carries its child-side span times (here: start =
        generation, end = generation + accuracy); a replayed epoch the
        skip drops takes its times with it."""
        def epoch(generation, accuracy):
            self.feed(pool, "epoch", generation, 7, accuracy, None,
                      float(generation), generation + accuracy)

        monkeypatch.setattr(pool_module, "TRIAL_ATTEMPTS", 3)
        pool.submit(self.spec, Trial(params={}, trial_id=7), None)
        assert self.dispatched_generation() == 0
        for accuracy in (0.1, 0.2, 0.3):
            epoch(0, accuracy)
        delivered = [pool.await_epoch(7) for _ in range(2)]  # one still buffered

        self.feed(pool, "error", 0, 7, "SimulatedCrash()")
        assert self.dispatched_generation() == 1
        assert self.error_counter().value(outcome="resubmitted") == 1
        state = pool._trials[7]
        assert state.skip == 2 and not state.records
        # the deterministic re-run replays the two consumed epochs
        # (discarded) before fresh ones reach the buffer again; what the
        # crashed run still had in the pipe is dropped as stale
        epoch(0, 0.99)
        for accuracy in (0.1, 0.2, 0.3):
            epoch(1, accuracy)
        delivered.append(pool.await_epoch(7))

        # a second crash skips everything consumed since submission,
        # not only what was consumed since the first crash
        self.feed(pool, "error", 1, 7, "SimulatedCrash()")
        assert self.dispatched_generation() == 2
        assert state.skip == 3
        for accuracy in (0.1, 0.2, 0.3, 0.4):
            epoch(2, accuracy)
        delivered.append(pool.await_epoch(7))
        assert delivered == [(0.1, None, 0.0, 0.1), (0.2, None, 0.0, 0.2),
                             (0.3, None, 1.0, 1.3), (0.4, None, 2.0, 2.4)]

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
