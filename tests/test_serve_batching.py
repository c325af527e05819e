"""Tests for Algorithm 3 (greedy batching)."""

import pytest
from serve_helpers import queue_of, view_of

from repro.core.serve import Dispatch, GreedyBatcher, Wait
from repro.exceptions import ConfigurationError
from repro.zoo import get_profile


def make_batcher(tau=0.56, backoff=None):
    profile = get_profile("inception_v3")
    return GreedyBatcher(
        batch_sizes=(16, 32, 48, 64), latency=profile.inference_time,
        tau=tau, backoff=backoff,
    )


class TestConstruction:
    def test_requires_latency_model(self):
        with pytest.raises(ConfigurationError):
            GreedyBatcher(latency=None)

    def test_default_backoff_is_tenth_of_tau(self):
        batcher = make_batcher(tau=1.0)
        assert batcher.backoff == pytest.approx(0.1)

    def test_batch_sizes_sorted_deduped(self):
        batcher = GreedyBatcher(batch_sizes=(64, 16, 16, 32), latency=lambda b: 0.1)
        assert batcher.batch_sizes == (16, 32, 64)


class TestDecide:
    def test_empty_queue_waits(self):
        assert make_batcher().decide(view_of([], now=0.0)) == Wait(None)

    def test_full_batch_dispatches_immediately(self):
        decision = make_batcher().decide(view_of([0.0] * 70, now=0.0))
        # no model named: any replica, busy or not
        assert decision == Dispatch(models=(), batch_size=64, take=64)

    def test_partial_batch_waits_until_deadline(self):
        batcher = make_batcher(tau=0.56)
        early = batcher.decide(view_of([0.0] * 32, now=0.01))
        # c(32) ~ 0.125; trigger when 0.125 + w + 0.056 >= 0.56 -> w ~ 0.38
        assert isinstance(early, Wait)
        assert early.until == pytest.approx(0.38, abs=0.01)
        late = batcher.decide(view_of([0.0] * 32, now=0.40))
        assert (late.batch_size, late.take) == (32, 32)

    def test_fit_batch_picks_largest_that_fits(self):
        batcher = make_batcher()
        assert batcher.fit_batch(70) == 64
        assert batcher.fit_batch(63) == 48
        assert batcher.fit_batch(16) == 16
        assert batcher.fit_batch(15) is None

    def test_leftover_requests_wait_until_overdue(self):
        """Queues shorter than min(B) have no valid batch (Algorithm 3
        line 7); they are served - already late - after tau."""
        batcher = make_batcher(tau=0.56)
        assert batcher.decide(view_of([0.0] * 10, now=0.5)) == Wait(until=0.56)
        decision = batcher.decide(view_of([0.0] * 10, now=0.57))
        assert decision.batch_size == 16  # padded batch
        assert decision.take == 10

    def test_backoff_dispatches_earlier(self):
        view = view_of([0.0] * 32, now=0.2)
        assert isinstance(make_batcher(backoff=0.3).decide(view), Dispatch)
        assert isinstance(make_batcher(backoff=0.0).decide(view), Wait)

    def test_named_models_must_all_be_idle(self):
        batcher = GreedyBatcher(latency=lambda b: 0.1, models=(0, 1))
        busy = view_of([0.0] * 70, now=1.0, busy_until=[0.0, 3.0])
        assert batcher.decide(busy) == Wait(None)
        idle = view_of([0.0] * 70, now=3.0, busy_until=[0.0, 3.0])
        assert batcher.decide(idle).models == (0, 1)


class TestNextDeadline:
    def test_empty_queue_none(self):
        assert make_batcher().next_deadline(queue_of([]), 0.0) is None

    def test_deadline_matches_decide_boundary(self):
        arrivals = [0.0] * 32
        batcher = make_batcher()
        wake = batcher.next_deadline(queue_of(arrivals), now=0.0)
        assert batcher.decide(view_of(arrivals, now=wake - 1e-6)) == Wait(wake)
        assert isinstance(batcher.decide(view_of(arrivals, now=wake + 1e-9)), Dispatch)

    def test_leftover_deadline_is_tau(self):
        queue = queue_of([2.0] * 5)
        batcher = make_batcher(tau=0.56)
        assert batcher.next_deadline(queue, now=2.0) == pytest.approx(2.56)

    def test_deadline_never_in_past(self):
        queue = queue_of([0.0] * 32)
        assert make_batcher().next_deadline(queue, now=100.0) == 100.0
