"""Pins the breaker's state machine and the retry schedule end to end.

Every block-store, parameter-server and replica call passes a breaker's
``allow``/``record_*`` and the chaos traces count its transitions, so
this script must hold byte for byte across any refactor of
``repro.utils.retry``.
"""

import pytest

from repro import telemetry
from repro.exceptions import RetryExhaustedError
from repro.utils.retry import CircuitBreaker, RetryPolicy

pytestmark = pytest.mark.chaos


def test_breaker_two_cycles_and_retry_schedule(manual_clock):
    breaker = CircuitBreaker(name="pin", failure_threshold=3, recovery_time=10.0)
    for _ in range(3):
        assert breaker.allow()
        breaker.record_failure()
    assert breaker.state == "open"
    manual_clock.advance(9.5)
    assert not breaker.allow()  # inside the recovery window

    manual_clock.advance(0.5)
    assert breaker.allow()  # the one half-open probe
    assert not breaker.allow()  # a second probe is refused
    breaker.record_success()
    assert breaker.state == "closed"

    for _ in range(3):
        assert breaker.allow()
        breaker.record_failure()
    manual_clock.advance(10.0)
    assert breaker.allow()
    breaker.record_failure()  # the probe fails: open again
    assert breaker.state == "open"
    assert not breaker.allow()
    assert breaker.opened_count == 3

    registry = telemetry.get_registry()
    assert registry.counter("repro_circuit_transitions_total").snapshot() == {
        "frm=closed,name=pin,to=open": 2.0,
        "frm=half_open,name=pin,to=closed": 1.0,
        "frm=half_open,name=pin,to=open": 1.0,
        "frm=open,name=pin,to=half_open": 2.0,
    }
    assert registry.gauge("repro_circuit_open").snapshot() == {"name=pin": 1.0}

    assert [RetryPolicy().delay(k) for k in range(5)] == [
        0.05136961687321454,
        0.1077947758255627,
        0.1832329615669275,
        0.4315978192631871,
        0.8612915096972368,
    ]
    assert [RetryPolicy(jitter=0.0).delay(k) for k in range(5)] == [
        0.05, 0.1, 0.2, 0.4, 0.8,
    ]

    retried = []

    def always_fails():
        raise ValueError("down")

    with pytest.raises(RetryExhaustedError) as excinfo:
        RetryPolicy().call(always_fails, name="pin",
                           on_retry=lambda attempt, error: retried.append(attempt))
    assert excinfo.value.attempts == 3
    assert isinstance(excinfo.value.last_error, ValueError)
    assert retried == [0, 1]
    assert registry.counter("repro_retry_attempts_total").snapshot() == {"name=pin": 3.0}
    assert registry.counter("repro_retry_exhausted_total").snapshot() == {"name=pin": 1.0}
