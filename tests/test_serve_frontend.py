"""The admission-controlled serving front end and its load harness.

Covers the sans-io core at hand-picked instants (admission edge cases,
batcher integration, dispatch faults), the deterministic load harness
(bit-identical same-seed traces, open and closed loop), the asyncio
shell, the gateway's 429 backpressure contract, the scaling advisor's
hysteresis, and a chaos-marked replica-death-mid-load scenario.
"""

import asyncio
from functools import partial

import pytest

from repro import chaos, telemetry
from repro.chaos import FaultKind, FaultPlan, FaultRule
from repro.core.serve import (
    AsyncServeFrontend,
    FrontendConfig,
    LoadGenConfig,
    ReplicaPool,
    ScalingAdvisor,
    ServeFrontend,
    TokenBucket,
    capacity_qps,
    run_load,
    run_multi_load,
)
from repro.core.serve.frontend import DispatchPlan
from repro.exceptions import ConfigurationError, RequestShedError


def lat(b):
    """A simple affine c(b) latency model for the tests."""
    return 0.05 + 0.001 * b


def config(**overrides):
    defaults = dict(latency=lat, tau=0.5, batch_sizes=(4, 8), max_queue=64)
    defaults.update(overrides)
    return FrontendConfig(**defaults)


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=2.0)  # burst: one second of rate
        for _ in range(2):
            assert bucket.peek(0.0) == 0.0
            bucket.tokens -= 1.0  # what admission spends
        wait = bucket.peek(0.0)
        assert wait == pytest.approx(0.5)  # one token at 2/s
        assert bucket.peek(0.0) == wait  # peeking spends nothing
        # after the hinted wait a token is there
        assert bucket.peek(wait) == 0.0

    def test_burst_caps_accumulation(self):
        bucket = TokenBucket(rate=3.0)
        # a long idle period must not bank more than the burst
        assert bucket.available(100.0) == pytest.approx(3.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=float("nan"))
        assert TokenBucket(rate=0.5).burst == 1.0  # never below one token


class TestAdmission:
    def test_queue_full_sheds_with_retry_hint(self, manual_clock):
        frontend = ServeFrontend(config(max_queue=3))
        for i in range(3):
            frontend.offer(f"c{i}", None, manual_clock.now())
        with pytest.raises(RequestShedError) as err:
            frontend.offer("c3", None, manual_clock.now())
        assert err.value.reason == "queue_full"
        assert err.value.retry_after > 0.0
        assert frontend.outcomes["queue_full"] == 1
        assert frontend.admitted == 3

    def test_deadline_shed_uses_capacity_hook(self):
        # one live replica, 10s head-of-line delay: no admitted request
        # could possibly meet tau, so admission refuses up front.
        frontend = ServeFrontend(config(), capacity=lambda now: (1, 10.0))
        with pytest.raises(RequestShedError) as err:
            frontend.offer("c", None, 0.0)
        assert err.value.reason == "deadline"
        # the hint is the estimated delay beyond the tau budget
        assert err.value.retry_after >= 10.0 - 0.5

    def test_deadline_slack_widens_admission(self):
        head = 0.6  # just past tau=0.5 with the batch drain added
        strict = ServeFrontend(config(), capacity=lambda now: (1, head))
        with pytest.raises(RequestShedError):
            strict.offer("c", None, 0.0)
        loose = ServeFrontend(
            config(deadline_slack=2.0), capacity=lambda now: (1, head)
        )
        assert loose.offer("c", None, 0.0).seq == 1

    def test_rate_limit_is_per_client(self, manual_clock):
        frontend = ServeFrontend(config(rate_limit=2.0))
        now = manual_clock.now()
        frontend.offer("a", None, now)
        frontend.offer("a", None, now)
        with pytest.raises(RequestShedError) as err:
            frontend.offer("a", None, now)
        assert err.value.reason == "rate_limit"
        assert err.value.retry_after == pytest.approx(0.5)
        # a different client has its own bucket
        assert frontend.offer("b", None, now).seq == 3
        # and client a recovers once its hinted wait elapses
        manual_clock.advance(err.value.retry_after)
        assert frontend.offer("a", None, manual_clock.now()).seq == 4

    def test_client_buckets_of_one_shot_clients_do_not_pile_up(self):
        frontend = ServeFrontend(config(rate_limit=2.0, max_queue=10**6,
                                        deadline_slack=1e9))
        # one client keeps hammering and stays throttled throughout...
        frontend.offer("hog", None, 0.0)
        frontend.offer("hog", None, 0.0)
        largest = 0
        for i in range(10**5):
            now = i * 0.01
            # ...while 10^5 client ids each show up exactly once
            frontend.offer(f"one-shot-{i}", None, now)
            largest = max(largest, len(frontend._buckets))
            if i % 25 == 0:  # four times a second: its bucket never refills
                with pytest.raises(RequestShedError) as err:
                    while True:  # spend whatever the hog earned meanwhile
                        frontend.offer("hog", None, now)
                assert err.value.reason == "rate_limit"
        # a one-shot bucket is dropped once it has refilled (0.5 s here);
        # the map holds those that have not, never all 10^5
        assert largest < 2500
        assert "hog" in frontend._buckets
        with pytest.raises(RequestShedError):
            frontend.offer("hog", None, now)

    def test_admission_telemetry(self):
        frontend = ServeFrontend(config(max_queue=1))
        frontend.offer("a", None, 0.0)
        with pytest.raises(RequestShedError):
            frontend.offer("b", None, 0.0)
        registry = telemetry.get_registry()
        requests = registry.counter(
            "repro_serve_frontend_requests_total", ""
        )
        # admissions are counted once per poll (per arrival burst), sheds at once
        assert requests.value(outcome="admitted", tenant="default") == 0
        assert requests.value(outcome="shed", tenant="default") == 1
        assert frontend.poll(0.0) == []
        assert requests.value(outcome="admitted", tenant="default") == 1
        frontend.poll(0.0)  # and only once
        assert requests.value(outcome="admitted", tenant="default") == 1
        assert requests.value(outcome="shed", tenant="default") == 1
        shed = registry.counter("repro_serve_frontend_shed_total", "")
        assert shed.value(reason="queue_full", tenant="default") == 1
        depth = registry.gauge("repro_serve_frontend_queue_depth", "")
        assert depth.value() == 1


class TestDispatch:
    def test_full_batch_dispatches_immediately(self):
        frontend = ServeFrontend(config())
        for i in range(8):
            frontend.offer("c", None, 0.0)
        plans = frontend.poll(0.0)
        assert len(plans) == 1
        assert plans[0].batch_size == 8
        assert plans[0].take == 8
        assert len(frontend.pending) == 0

    def test_partial_batch_waits_for_deadline_pressure(self):
        frontend = ServeFrontend(config())
        for i in range(5):
            frontend.offer("c", None, 0.0)
        assert frontend.poll(0.0) == []
        # the batcher's trigger: arrival + tau - c(4) - backoff
        wake = frontend.next_wake(0.0)
        assert wake == pytest.approx(0.5 - lat(4) - 0.05)
        plans = frontend.poll(wake)
        assert len(plans) == 1
        assert plans[0].batch_size == 4 and plans[0].take == 4
        # the leftover request waits for the tau-overrun grace rule
        assert len(frontend.pending) == 1
        assert frontend.next_wake(wake) == pytest.approx(0.5)
        leftover = frontend.poll(0.5)
        assert len(leftover) == 1
        assert leftover[0].take == 1
        assert leftover[0].batch_size == 4  # padded to min(B)

    def test_complete_accounts_latency_and_slo(self):
        frontend = ServeFrontend(config())
        for i in range(8):
            frontend.offer("c", None, 0.0)
        (plan,) = frontend.poll(0.0)
        frontend.complete(plan, 0.6)  # past tau=0.5: all 8 overdue
        assert frontend.served == 8
        assert frontend.latency_quantile(0.5) == pytest.approx(0.6)
        registry = telemetry.get_registry()
        assert registry.counter(
            "repro_serve_frontend_overdue_total", ""
        ).value() == 8
        assert registry.gauge(
            "repro_serve_frontend_latency_p95_seconds", ""
        ).value() == pytest.approx(0.6)


class TestDispatchFaults:
    def test_accept_fault_sheds_with_reason_fault(self):
        plan = FaultPlan(
            [FaultRule("frontend.accept", FaultKind.EXCEPTION, max_faults=1)],
            seed=0,
        )
        frontend = ServeFrontend(config())
        with chaos.active(plan):
            with pytest.raises(RequestShedError) as err:
                frontend.offer("c", None, 0.0)
            assert err.value.reason == "fault"
            # the rule is exhausted; the next offer is admitted
            assert frontend.offer("c", None, 0.0).seq == 1

    def test_dispatch_fault_requeues_and_retries(self):
        plan = FaultPlan(
            [FaultRule("frontend.dispatch", FaultKind.EXCEPTION, max_faults=1)],
            seed=0,
        )
        frontend = ServeFrontend(config())
        for i in range(8):
            frontend.offer("c", None, 0.0)
        with chaos.active(plan):
            assert frontend.poll(0.0) == []  # fault: batch re-queued
            assert len(frontend.pending) == 8
            retry_at = frontend.next_wake(0.0)
            assert retry_at == pytest.approx(
                frontend.config.dispatch_retry.base_delay
            )
            assert frontend.poll(retry_at / 2) == []  # backoff holds
            (recovered,) = frontend.poll(retry_at)
            assert recovered.take == 8
        assert telemetry.get_registry().counter(
            "repro_serve_frontend_dispatch_retries_total", ""
        ).value() == 1

    def test_poisoned_batch_shed_after_max_attempts(self):
        attempts = FrontendConfig(
            latency=lat, tau=0.5, batch_sizes=(4, 8), max_queue=64
        ).dispatch_retry.max_attempts
        plan = FaultPlan(
            [FaultRule("frontend.dispatch", FaultKind.EXCEPTION)], seed=0
        )
        frontend = ServeFrontend(config())
        for i in range(8):
            frontend.offer("c", None, 0.0)
        with chaos.active(plan):
            now = 0.0
            for _ in range(attempts):
                frontend.poll(now)
                now = frontend.next_wake(now) or now
        # the batch was shed rather than wedging the queue forever
        assert frontend.outcomes.get("dispatch_failed") == 8
        assert len(frontend.pending) == 0


class TestLoadDeterminism:
    def run(self, mode, seed, **load_kwargs):
        frontend = ServeFrontend(config(tau=0.2, batch_sizes=(4, 8, 16)))
        pool = ReplicaPool(lat, replicas=2)
        defaults = dict(mode=mode, duration=4.0, seed=seed)
        defaults.update(load_kwargs)
        return run_load(frontend, pool, LoadGenConfig(**defaults))

    def test_open_loop_same_seed_bit_identical(self):
        kwargs = dict(target_rate=300.0, period=4.0)
        first = self.run("open", 7, **kwargs)
        second = self.run("open", 7, **kwargs)
        assert first.records  # the run actually offered load
        assert first.fingerprint() == second.fingerprint()
        assert first.summary() == second.summary()

    def test_open_loop_seed_changes_trace(self):
        kwargs = dict(target_rate=300.0, period=4.0)
        assert (
            self.run("open", 7, **kwargs).fingerprint()
            != self.run("open", 8, **kwargs).fingerprint()
        )

    def test_closed_loop_same_seed_bit_identical(self):
        kwargs = dict(clients=12, think_time=0.01)
        first = self.run("closed", 3, **kwargs)
        second = self.run("closed", 3, **kwargs)
        assert first.records
        assert first.fingerprint() == second.fingerprint()

    def test_single_load_is_multi_load_of_one(self):
        def run(entry, loads):
            frontend = ServeFrontend(config(tau=0.2, batch_sizes=(4, 8, 16)))
            return entry(frontend, ReplicaPool(lat, replicas=2), loads)

        load = LoadGenConfig(mode="open", duration=4.0, seed=7,
                             target_rate=300.0, period=4.0)
        single = run(run_load, load)
        multi = run(run_multi_load, [load])
        assert single.records
        assert single.fingerprint() == multi.fingerprint()
        assert single.summary() == multi.summary()

    def test_closed_loop_self_limits(self):
        trace = self.run("closed", 3, clients=12, think_time=0.01)
        summary = trace.summary()
        assert summary["shed_rate"] == 0.0
        # offered load cannot exceed clients / (service + think)
        assert summary["offered_qps"] <= 12 / 0.01

    def test_every_offered_request_gets_one_terminal_record(self):
        trace = self.run("open", 7, target_rate=300.0, period=4.0)
        summary = trace.summary()
        assert summary["offered"] == summary["served"] + summary["shed"]

    def test_overload_sheds_and_bounds_the_tail(self):
        capacity = capacity_qps(lat, 16, 2)
        trace = self.run(
            "open", 5, target_rate=3.0 * capacity, period=4.0
        )
        summary = trace.summary()
        assert summary["shed"] > 0
        assert summary["p99_s"] <= 2.0 * 0.2  # shedding caps the tail

    def test_capacity_qps(self):
        assert capacity_qps(lat, 16, 2) == pytest.approx(2 * 16 / lat(16))
        with pytest.raises(ConfigurationError):
            capacity_qps(lambda b: 0.0, 16)


NAN, INF = float("nan"), float("inf")


class TestServingNumbersValidated:
    """Numbers that would hang a run (NaN, infinite) or make it meaningless."""

    @pytest.mark.parametrize("make, field, value", [
        *((config, "tau", v) for v in (NAN, INF, 0.0, -1.0)),
        *((config, "deadline_slack", v) for v in (NAN, 0.0, -1.0)),
        *((partial(LoadGenConfig, mode=mode), "duration", v)
          for mode in ("open", "closed") for v in (NAN, INF, 0.0, -1.0)),
        *((partial(LoadGenConfig, mode="open"), name, v)
          for name in ("period", "span", "target_rate") for v in (NAN, INF, 0.0, -1.0)),
        *((partial(LoadGenConfig, mode="closed"), "think_time", v) for v in (NAN, INF, -1.0)),
    ])
    def test_refused(self, make, field, value):
        with pytest.raises(ConfigurationError, match=field):
            make(**{field: value})

    @pytest.mark.parametrize("overrides", [
        {"rate_limit": NAN},
        {"tenant_rate_limits": {"a": NAN}},
        {"tenant_rate_limits": {"a": 0.0}},
        {"tenant_rate_limits": {"b": 1.0, "a": -1.0}},
    ], ids=["rate-nan", "tenant-nan", "tenant-zero", "tenant-negative"])
    def test_rate_limits_refused(self, overrides):
        """Regression: a NaN rate passed the ``<= 0`` check and admitted
        every request; a tenant rate of 0 constructed, then failed every
        one of that tenant's requests inside ``offer``."""
        field = next(iter(overrides))
        with pytest.raises(ConfigurationError, match=field):
            config(**overrides)

    @pytest.mark.parametrize("value", [NAN, 0, -1])
    def test_max_queue_refused(self, value):
        """Regression: a NaN ``max_queue`` passed the ``< 1`` check and left
        the accept queue unbounded."""
        with pytest.raises(ConfigurationError, match="max_queue"):
            config(max_queue=value)

    def test_accepted_edges(self):
        assert config(deadline_slack=INF).deadline_slack == INF  # no deadline shedding
        assert LoadGenConfig(mode="closed", think_time=0.0).think_time == 0.0
        # a closed loop has no arrival process: its rate is not read
        assert LoadGenConfig(mode="closed", target_rate=0.0).target_rate == 0.0


@pytest.mark.chaos
class TestChaosLoad:
    def run_with_kill(self, seed):
        frontend = ServeFrontend(config(tau=0.2, batch_sizes=(4, 8, 16)))
        pool = ReplicaPool(lat, replicas=2)
        capacity = capacity_qps(lat, 16, 2)
        load = LoadGenConfig(
            mode="open", target_rate=0.8 * capacity, period=6.0,
            duration=6.0, seed=seed,
        )
        trace = run_load(
            frontend, pool, load, events=[(2.0, lambda: pool.kill(0))]
        )
        return trace, pool

    def test_replica_death_mid_load_sheds_boundedly(self):
        trace, pool = self.run_with_kill(seed=9)
        summary = trace.summary()
        assert pool.live() == 1
        assert summary["served"] > 0
        # the survivor cannot carry the peak alone: admission sheds —
        # but boundedly, and the tail of what is served stays capped.
        assert 0 < summary["shed_rate"] < 0.6
        assert summary["p99_s"] <= 2.0 * 0.2
        assert summary["offered"] == summary["served"] + summary["shed"]

    def test_replica_death_scenario_is_deterministic(self):
        first, _ = self.run_with_kill(seed=9)
        second, _ = self.run_with_kill(seed=9)
        assert first.fingerprint() == second.fingerprint()


class TestAsyncShell:
    def test_concurrent_submissions_batch_and_backpressure(self):
        batches = []

        def executor(payloads, batch_size):
            batches.append((len(payloads), batch_size))
            return [p * 2 for p in payloads]

        async def scenario():
            cfg = FrontendConfig(
                latency=lambda b: 0.001, tau=0.05,
                batch_sizes=(1, 2, 4), max_queue=8,
            )
            served, shed = [], []

            async def one(frontend, i):
                try:
                    served.append((i, await frontend.submit(i)))
                except RequestShedError as exc:
                    assert exc.retry_after >= 0.0
                    shed.append(i)

            async with AsyncServeFrontend(cfg, executor) as frontend:
                await asyncio.gather(*(one(frontend, i) for i in range(16)))
            return served, shed

        served, shed = asyncio.run(scenario())
        assert len(served) + len(shed) == 16
        assert len(served) >= 8  # at least a queue's worth got through
        for i, result in served:
            assert result == i * 2
        assert batches  # work actually went through the batcher

    def test_executor_error_fails_the_future(self):
        def executor(payloads, batch_size):
            raise RuntimeError("backend exploded")

        async def scenario():
            cfg = FrontendConfig(
                latency=lambda b: 0.001, tau=0.05, batch_sizes=(1,),
            )
            async with AsyncServeFrontend(cfg, executor) as frontend:
                # the backend's own failure propagates to the caller
                # (it is not a backpressure signal)
                with pytest.raises(RuntimeError, match="backend exploded"):
                    await frontend.submit(1, tenant="acme")
                return frontend.core

        core = asyncio.run(scenario())
        assert telemetry.get_registry().counter(
            "repro_serve_frontend_executor_errors_total", ""
        ).value() == 1
        # the ledger closes: the admitted request has a terminal outcome
        assert core.admitted == 1
        assert core.outcomes == {"executor_error": 1}
        assert core.admitted == core.served + core.shed
        assert core.tenant_outcomes == {"acme": {"admitted": 1, "executor_error": 1}}


class TestGatewayBackpressure:
    def test_shed_maps_to_429_with_retry_hint(self):
        from repro.api.gateway import Gateway

        response = Gateway._error_response(RequestShedError("queue_full", 0.25))
        assert response.status == 429
        assert response.body["reason"] == "queue_full"
        assert response.body["retry_after"] == pytest.approx(0.25)

    def test_handle_async_routes_through_attached_frontend(self):
        from repro.api.gateway import Gateway
        from repro.core.system import Rafiki
        from repro.core.tune import HyperConf
        from repro.data import make_image_classification

        system = Rafiki(seed=5)
        dataset = make_image_classification(
            name="food", num_classes=3, image_shape=(3, 8, 8),
            train_per_class=12, val_per_class=6, test_per_class=6,
            difficulty=0.3, seed=11,
        )
        system.import_images(dataset)
        job_id = system.create_train_job(
            "t", "ImageClassification", "food",
            hyper=HyperConf(max_trials=2, max_epochs_per_trial=3),
        )
        infer_id = system.create_inference_job(system.get_models(job_id))
        gateway = Gateway(system)

        from repro.api import make_query_executor

        cfg = FrontendConfig(
            latency=lambda b: 0.001, tau=0.2,
            batch_sizes=(1, 2, 4), max_queue=4,
        )
        frontend = AsyncServeFrontend(
            cfg, make_query_executor(system, infer_id)
        )
        gateway.attach_frontend(infer_id, frontend)

        async def scenario():
            async with frontend:
                return await asyncio.gather(*(
                    gateway.handle_async(
                        "POST", f"/query/{infer_id}",
                        {"img": dataset.test_x[i % len(dataset.test_x)].tolist()},
                        client_id=f"c{i}",
                    )
                    for i in range(12)
                ))

        responses = asyncio.run(scenario())
        by_status = {}
        for response in responses:
            by_status.setdefault(response.status, []).append(response)
        assert set(by_status) <= {200, 429}
        assert by_status.get(200), "no query was served"
        for ok in by_status.get(200, []):
            assert "label" in ok.body
        for throttled in by_status.get(429, []):
            assert throttled.body["retry_after"] >= 0.0
            assert throttled.body["reason"]
        gateway.detach_frontend(infer_id)

    def test_handle_async_rejects_missing_img(self):
        from repro.api.gateway import Gateway
        from repro.core.system import Rafiki

        gateway = Gateway(Rafiki(seed=5))
        cfg = FrontendConfig(latency=lambda b: 0.001, tau=0.2, batch_sizes=(1,))
        frontend = AsyncServeFrontend(cfg, lambda payloads, b: payloads)
        gateway.attach_frontend("job", frontend)

        async def scenario():
            async with frontend:
                return await gateway.handle_async("POST", "/query/job", {})

        assert asyncio.run(scenario()).status == 400

    def test_handle_async_delegates_other_routes(self):
        from repro.api.gateway import Gateway
        from repro.core.system import Rafiki

        gateway = Gateway(Rafiki(seed=5))
        response = asyncio.run(gateway.handle_async("GET", "/datasets"))
        assert response.ok


class TestPolicyChoosesTheEnsemble:
    """The RL scheduler of Figures 14-16 serving real queries."""

    NAMES = ("inception_v3", "inception_v4", "inception_resnet_v2")

    def deploy(self):
        from repro.core.system import Rafiki
        from repro.core.tune import HyperConf
        from repro.data import make_image_classification

        system = Rafiki(seed=5)
        dataset = make_image_classification(
            name="food", num_classes=3, image_shape=(3, 8, 8),
            train_per_class=12, val_per_class=6, test_per_class=8,
            difficulty=0.3, seed=11,
        )
        system.import_images(dataset)
        job_id = system.create_train_job(
            "t", "ImageClassification", "food", num_models=3,
            hyper=HyperConf(max_trials=2, max_epochs_per_trial=3),
        )
        infer_id = system.create_inference_job(system.get_models(job_id))
        return system, infer_id, dataset.test_x

    def test_rl_policy_serves_real_queries_on_its_subsets(self):
        from repro.api import make_query_executor
        from repro.api.gateway import Gateway
        from repro.core.serve import EnsembleScorer, RLController
        from repro.zoo import get_profile

        system, infer_id, images = self.deploy()
        info = system.get_inference_job(infer_id)
        deployed = [spec.model_name for spec in info.specs]
        assert len(deployed) == 3
        # the policy's model of the fleet: one latency card and the
        # subset-accuracy table, model i standing for deployed model i
        cards = [get_profile(name) for name in self.NAMES]
        policy = RLController(cards, (1, 2, 4), 0.56, seed=3,
                              scorer=EnsembleScorer(self.NAMES))
        cfg = FrontendConfig(latency=cards[0].inference_time, tau=0.56,
                             batch_sizes=(1, 2, 4), max_queue=64)
        frontend = AsyncServeFrontend(
            cfg, make_query_executor(system, infer_id), policy=policy
        )
        gateway = Gateway(system)
        gateway.attach_frontend(infer_id, frontend)

        async def scenario():
            async with frontend:
                return await asyncio.gather(*(
                    gateway.handle_async(
                        "POST", f"/query/{infer_id}", {"img": image.tolist()}
                    )
                    for image in images
                ))

        replies = asyncio.run(scenario())
        assert all(reply.status == 200 for reply in replies)
        assert frontend.core.served == len(images) and frontend.core.shed == 0
        # each batch was paid its Equation-7 reward
        assert policy.learner.decisions > 0 and not policy.learner._open

        subsets = {tuple(reply.body["models"]) for reply in replies}
        assert any(len(subset) < 3 for subset in subsets)  # it does choose
        partial = None
        for index, (image, reply) in enumerate(zip(images, replies)):
            chosen = [deployed.index(name) for name in reply.body["models"]]
            assert chosen == sorted(chosen)
            # the reply is the chosen models' vote, nothing else
            direct = system.query(infer_id, image, models=chosen)
            assert direct["models"] == reply.body["models"]
            assert direct["label"] == reply.body["label"]
            assert direct["votes"] == reply.body["votes"]
            if len(chosen) < 3 and partial is None:
                partial = index, chosen

        # a subset answer is not remembered: the full-ensemble query for
        # the same image is computed, by all three models...
        index, chosen = partial
        hits, misses = info.cache.hits, info.cache.misses
        full = system.query(infer_id, images[index])
        assert (info.cache.hits, info.cache.misses) == (hits, misses + 1)
        assert full["models"] == deployed and len(full["votes"]) == 3
        # ...and once it is cached, a subset query is its projection
        again = system.query(infer_id, images[index], models=chosen)
        assert info.cache.hits == hits + 1
        assert again["votes"] == [full["votes"][i] for i in chosen]
        assert again["label"] == replies[index].body["label"]

    def test_subset_reaches_the_executor_only_when_chosen(self):
        from repro.core.serve import Dispatch, DispatchPolicy, Wait

        class Alternate(DispatchPolicy):
            """Singles: first on the whole ensemble, then on models (0, 2)."""

            def __init__(self):
                self.outcomes = []

            def decide(self, view):
                if not view.queue:
                    return Wait()
                models = (0, 2) if self.outcomes else ()
                return Dispatch(models, 1, 1, token=len(self.outcomes))

            def on_complete(self, outcome):
                self.outcomes.append(outcome)

        calls = []

        def executor(*args):
            calls.append(args)
            return list(args[0])

        policy = Alternate()

        async def scenario():
            cfg = FrontendConfig(latency=lambda b: 0.001, tau=0.05, batch_sizes=(1,))
            async with AsyncServeFrontend(cfg, executor, policy=policy) as frontend:
                return [await frontend.submit(i) for i in range(2)]

        assert asyncio.run(scenario()) == [0, 1]
        assert calls == [([0], 1), ([1], 1, (0, 2))]
        assert [(o.models, o.take, o.token) for o in policy.outcomes] == [
            ((), 1, 0), ((0, 2), 1, 1),
        ]


class TestScalingAdvisor:
    def frontend(self, depth, latency=None):
        """A front end with ``depth`` requests queued and, with
        ``latency``, one request already served that slowly."""
        frontend = ServeFrontend(config(max_queue=1024, tau=10.0))
        for index in range(depth + (latency is not None)):
            frontend.offer(f"client-{index}", None, 0.0)
        if latency is not None:
            frontend.complete(DispatchPlan(frontend.pending.pop(1), 1), latency)
        return frontend

    def test_watermarks_and_cooldown(self):
        frontend = self.frontend(depth=300)
        advisor = ScalingAdvisor()  # above 256 queued; a 5 s cooldown
        assert advisor.evaluate(frontend, 0.0) == 1
        assert advisor.evaluate(frontend, 2.0) == 0  # cooldown suppresses
        assert advisor.evaluate(frontend, 6.0) == 1
        frontend.pending.pop(300)
        assert advisor.evaluate(frontend, 7.0) == 0  # still cooling down
        assert advisor.evaluate(frontend, 12.0) == -1
        hint = telemetry.get_registry().gauge(
            "repro_serve_frontend_scale_hint", ""
        )
        assert hint.value() == -1

    def test_hold_band_between_watermarks(self):
        # depth between low (16) and high (256), p95 between 0.2 and 0.5
        frontend = self.frontend(depth=100, latency=0.3)
        assert frontend.latency_quantile(0.95) == pytest.approx(0.3)
        assert ScalingAdvisor().evaluate(frontend, 0.0) == 0

    def test_two_frontends_get_independent_hints(self):
        busy, idle = self.frontend(depth=300), self.frontend(depth=0)
        assert ScalingAdvisor().evaluate(busy, 0.0) == 1
        assert ScalingAdvisor().evaluate(idle, 0.0) == -1
        # (the unlabelled gauges show whichever was built last; hints do not)
        assert ScalingAdvisor().evaluate(busy, 0.0) == 1

    def test_hints_do_not_depend_on_telemetry_being_on(self):
        frontend = self.frontend(depth=300, latency=0.3)
        telemetry.get_registry().disable()
        advisor = ScalingAdvisor()
        assert advisor.evaluate(frontend, 0.0) == 1
        frontend.pending.pop(300)
        assert advisor.evaluate(frontend, 6.0) == 0  # p95 0.3 holds it
        assert ScalingAdvisor().evaluate(self.frontend(depth=0), 0.0) == -1

    def test_autoscaled_load_grows_the_pool(self):
        # no deadline shedding: the replica's backlog pushes p95 past 0.5 s
        frontend = ServeFrontend(config(tau=0.2, batch_sizes=(4, 8, 16),
                                        deadline_slack=float("inf")))
        pool = ReplicaPool(lat, replicas=1)
        capacity = capacity_qps(lat, 16, 1)
        load = LoadGenConfig(
            mode="open", target_rate=2.5 * capacity, period=6.0,
            duration=6.0, seed=2,
        )
        trace = run_load(frontend, pool, load, autoscaler=ScalingAdvisor())
        # the scale-in hint at 0 s (already at one replica) starts the 5 s
        # cooldown; the first scale-out hint comes at 5 s
        assert pool.size == 2
        assert trace.summary()["served"] > 0
