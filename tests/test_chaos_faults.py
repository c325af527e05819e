"""Unit tests for the chaos primitives: plans, retries, breakers."""

import numpy as np
import pytest

from repro import chaos, telemetry
from repro.chaos import FaultKind, FaultPlan, FaultRule
from repro.exceptions import (
    ConfigurationError,
    DroppedResponse,
    InjectedFault,
    RetryExhaustedError,
)
from repro.utils.retry import CircuitBreaker, RetryPolicy

pytestmark = pytest.mark.chaos


class TestFaultRule:
    def test_pattern_matching(self):
        rule = FaultRule("paramserver.*", FaultKind.EXCEPTION)
        assert rule.matches("paramserver.push")
        assert rule.matches("paramserver.pull")
        assert not rule.matches("serve.dispatch")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultRule("p", FaultKind.EXCEPTION, probability=1.5)
        with pytest.raises(ConfigurationError):
            FaultRule("p", FaultKind.LATENCY, latency=-0.1)
        with pytest.raises(ConfigurationError):
            FaultRule("p", FaultKind.DROP, after=-1)
        with pytest.raises(ConfigurationError):
            FaultRule("p", FaultKind.DROP, max_faults=-2)


class TestFaultPlan:
    def test_exception_drop_latency_kinds(self):
        plan = FaultPlan([
            FaultRule("a", FaultKind.EXCEPTION),
            FaultRule("b", FaultKind.DROP),
            FaultRule("c", FaultKind.LATENCY, latency=0.25),
        ])
        with pytest.raises(InjectedFault):
            plan.fire("a")
        with pytest.raises(DroppedResponse):
            plan.fire("b")
        assert plan.fire("c") == 0.25
        assert plan.fire("unmatched") == 0.0
        assert plan.kinds_hit() == ["drop", "exception", "latency"]

    def test_after_skips_early_invocations(self):
        plan = FaultPlan([FaultRule("p", FaultKind.EXCEPTION, after=2)])
        assert plan.fire("p") == 0.0
        assert plan.fire("p") == 0.0
        with pytest.raises(InjectedFault):
            plan.fire("p")

    def test_max_faults_caps_injections(self):
        plan = FaultPlan([FaultRule("p", FaultKind.EXCEPTION, max_faults=2)])
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.fire("p")
        assert plan.fire("p") == 0.0
        assert plan.faults_injected() == 2

    def test_probability_sequence_is_seeded(self):
        def decisions(seed):
            plan = FaultPlan(
                [FaultRule("p", FaultKind.EXCEPTION, probability=0.5)], seed=seed
            )
            out = []
            for _ in range(40):
                try:
                    plan.fire("p")
                    out.append(False)
                except InjectedFault:
                    out.append(True)
            return out

        assert decisions(3) == decisions(3)
        assert decisions(3) != decisions(4)
        assert any(decisions(3)) and not all(decisions(3))

    def test_trace_records_order_and_invocations(self):
        plan = FaultPlan([FaultRule("p", FaultKind.DROP, after=1)])
        plan.fire("p")
        with pytest.raises(DroppedResponse):
            plan.fire("p")
        (event,) = plan.trace()
        assert event == {
            "index": 0, "point": "p", "kind": "drop",
            "invocation": 2, "latency": 0.0,
        }
        assert plan.invocations("p") == 2

    def test_faults_counted_in_telemetry(self):
        plan = FaultPlan([FaultRule("p", FaultKind.EXCEPTION)])
        with pytest.raises(InjectedFault):
            plan.fire("p")
        counter = telemetry.get_registry().counter("repro_chaos_faults_injected_total")
        assert counter.value(point="p", kind="exception") == 1

    def test_adding_a_rule_preserves_other_streams(self):
        # Per-rule RNG streams are keyed by (seed, rule index), so an
        # appended rule never perturbs earlier rules' decisions.
        base = FaultPlan([FaultRule("p", FaultKind.EXCEPTION, probability=0.5)])
        extended = FaultPlan([
            FaultRule("p", FaultKind.EXCEPTION, probability=0.5),
            FaultRule("q", FaultKind.DROP, probability=0.5),
        ])

        def sample(plan, point, n=30):
            out = []
            for _ in range(n):
                try:
                    plan.fire(point)
                    out.append(False)
                except (InjectedFault, DroppedResponse):
                    out.append(True)
            return out

        assert sample(base, "p") == sample(extended, "p")


class TestPlanInstallation:
    def test_fire_without_plan_is_noop(self):
        assert chaos.get_plan() is None
        assert chaos.fire("anything") == 0.0

    def test_active_installs_and_restores(self):
        plan = FaultPlan([FaultRule("p", FaultKind.EXCEPTION)])
        with chaos.active(plan) as installed:
            assert chaos.get_plan() is installed
            with pytest.raises(InjectedFault):
                chaos.fire("p")
        assert chaos.get_plan() is None


class TestRetryPolicy:
    def test_succeeds_after_transient_failures(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise InjectedFault("boom")
            return "done"

        policy = RetryPolicy(max_attempts=3, jitter=0.0)
        assert policy.call(flaky, name="flaky") == "done"
        assert len(attempts) == 3
        counter = telemetry.get_registry().counter("repro_retry_attempts_total")
        assert counter.value(name="flaky") == 3

    def test_exhaustion_raises_with_context(self):
        policy = RetryPolicy(max_attempts=2, jitter=0.0)

        def always_fails():
            raise InjectedFault("nope")

        with pytest.raises(RetryExhaustedError) as excinfo:
            policy.call(always_fails, name="dep")
        assert excinfo.value.attempts == 2
        assert isinstance(excinfo.value.last_error, InjectedFault)
        counter = telemetry.get_registry().counter("repro_retry_exhausted_total")
        assert counter.value(name="dep") == 1

    def test_non_retryable_errors_propagate_immediately(self):
        policy = RetryPolicy(max_attempts=5, retry_on=(InjectedFault,))
        calls = []

        def bad():
            calls.append(1)
            raise ValueError("logic bug")

        with pytest.raises(ValueError):
            policy.call(bad)
        assert len(calls) == 1

    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=6, base_delay=0.1, max_delay=0.5, jitter=0.0)
        assert [policy.delay(k) for k in range(5)] == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_per_seed(self):
        a = RetryPolicy(jitter=0.2, seed=5)
        b = RetryPolicy(jitter=0.2, seed=5)
        c = RetryPolicy(jitter=0.2, seed=6)
        assert a.delay(1) == b.delay(1)
        assert a.delay(1) != c.delay(1)
        raw = RetryPolicy(jitter=0.0).delay(1)
        assert 0.8 * raw <= a.delay(1) <= 1.2 * raw

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay=-1.0)

    @pytest.mark.parametrize("field", ["max_attempts", "base_delay", "max_delay", "jitter"])
    def test_nan_refused(self, field):
        """Regression: NaN passed the ``< bound`` checks; a NaN base delay
        then made ``delay(0)`` NaN, and a NaN cap made ``delay`` uncapped."""
        with pytest.raises(ConfigurationError):
            RetryPolicy(**{field: float("nan")})


class TestCircuitBreaker:
    def test_opens_after_threshold_and_recovers(self, manual_clock):
        breaker = CircuitBreaker(name="b", failure_threshold=3, recovery_time=10.0)
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        manual_clock.advance(10.0)
        assert breaker.allow()  # half-open probe admitted
        breaker.record_success()
        assert breaker.closed

    def test_half_open_failure_reopens(self, manual_clock):
        breaker = CircuitBreaker(name="b", failure_threshold=1, recovery_time=5.0)
        breaker.record_failure()
        manual_clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opened_count == 2

    def test_half_open_probe_budget(self, manual_clock):
        breaker = CircuitBreaker(name="b", failure_threshold=1, recovery_time=1.0)
        breaker.record_failure()
        manual_clock.advance(1.0)
        assert breaker.allow()
        assert not breaker.allow()  # second concurrent probe rejected

    @pytest.mark.parametrize("field", ["failure_threshold", "recovery_time"])
    def test_nan_refused(self, field):
        """Regression: a NaN threshold never opened the breaker, and a NaN
        recovery time half-opened it at once."""
        with pytest.raises(ConfigurationError):
            CircuitBreaker(name="b", **{field: float("nan")})

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker(name="b", failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.closed

    def test_transitions_recorded_in_telemetry(self, manual_clock):
        breaker = CircuitBreaker(name="dep", failure_threshold=1, recovery_time=1.0)
        breaker.record_failure()
        manual_clock.advance(1.0)
        breaker.allow()
        breaker.record_success()
        counter = telemetry.get_registry().counter("repro_circuit_transitions_total")
        assert counter.value(name="dep", frm="closed", to="open") == 1
        assert counter.value(name="dep", frm="open", to="half_open") == 1
        assert counter.value(name="dep", frm="half_open", to="closed") == 1
        gauge = telemetry.get_registry().gauge("repro_circuit_open")
        assert gauge.value(name="dep") == 0.0


class TestDeterministicJitterStream:
    def test_delay_does_not_touch_global_rng(self):
        state_before = np.random.get_state()[1].copy()
        RetryPolicy(jitter=0.3, seed=1).delay(4)
        assert np.array_equal(np.random.get_state()[1], state_before)
