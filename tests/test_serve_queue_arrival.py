"""Tests for the request queue and the sine arrival process."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from serve_helpers import queue_of

from repro.core.serve import (
    FrontendConfig,
    ServeFrontend,
    SineArrival,
    solve_sine_coefficients,
)
from repro.exceptions import RequestShedError


class TestRequestQueue:
    """The one FIFO queue: what the front end fills and policies read."""

    def test_fifo_pop(self):
        queue = queue_of([1.0, 2.0, 3.0])
        assert [r.arrival for r in queue.pop(2)] == [1.0, 2.0]
        assert len(queue) == 1

    def test_pop_more_than_available(self):
        assert len(queue_of([1.0] * 3).pop(10)) == 3

    def test_capacity_drops(self):
        frontend = ServeFrontend(
            FrontendConfig(latency=lambda b: 0.01, max_queue=5, deadline_slack=100.0)
        )
        refused = 0
        for _ in range(8):
            try:
                frontend.offer("c", None, 0.0)
            except RequestShedError as exc:
                assert exc.reason == "queue_full"
                refused += 1
        assert refused == 3
        assert frontend.outcomes == {"queue_full": 3}
        assert len(frontend.pending) == 5

    def test_oldest_wait(self):
        assert queue_of([10.0]).oldest_wait(now=12.5) == pytest.approx(2.5)

    def test_empty_oldest_raises(self):
        with pytest.raises(IndexError):
            queue_of([]).oldest_arrival()

    def test_waiting_times_pad_and_truncate(self):
        queue = queue_of([1.0, 2.0, 3.0])
        padded = queue.waiting_times(now=4.0, length=5)
        np.testing.assert_allclose(padded, [3.0, 2.0, 1.0, 0.0, 0.0])
        truncated = queue.waiting_times(now=4.0, length=2)
        np.testing.assert_allclose(truncated, [3.0, 2.0])

    def test_counters(self):
        queue = queue_of([0.0] * 4)
        for request in queue_of([0.0] * 2).pop(2):
            request.tenant = "other"
            queue.append(request)
        popped = queue.pop(3)
        assert (queue.count("default"), queue.count("other")) == (1, 2)
        # a failed batch goes back to the head, in order, counted again
        queue.push_front(popped)
        assert (queue.count("default"), queue.count("other")) == (4, 2)
        assert [r.seq for r in queue.pop(6)] == [1, 2, 3, 4, 1, 2]


class TestSineCoefficients:
    @given(st.floats(min_value=1.0, max_value=10_000.0))
    def test_equations_hold(self, target):
        """Eq 8: r(T/4 +/- 0.1T) = target; Eq 9: peak = 1.1 target."""
        gamma, intercept = solve_sine_coefficients(target)
        assert gamma + intercept == pytest.approx(1.1 * target, rel=1e-9)
        band = gamma * math.cos(0.2 * math.pi) + intercept
        assert band == pytest.approx(target, rel=1e-9)

    def test_rate_never_negative(self):
        arrival = SineArrival(100.0, period=500.0)
        times = np.linspace(0, 1000, 500)
        assert all(arrival.rate(t) >= 0 for t in times)

    def test_above_target_for_20_percent_of_cycle(self):
        arrival = SineArrival(100.0, period=500.0)
        times = np.linspace(0, 500, 100_000, endpoint=False)
        above = np.mean([arrival.rate(t) > 100.0 for t in times])
        assert above == pytest.approx(0.2, abs=0.005)

    def test_peak_and_trough(self):
        arrival = SineArrival(200.0, period=100.0)
        # the sine peaks at T/4 and bottoms out at 3T/4
        assert arrival.rate(25.0) == pytest.approx(220.0)
        assert arrival.rate(75.0) >= 0.0


class TestSineCounts:
    def test_mean_count_tracks_rate(self):
        arrival = SineArrival(100.0, period=500.0, rng=np.random.default_rng(0))
        arrival.noise_std = 0.0
        total = sum(arrival.count(t * 0.1, 0.1) for t in range(5000))  # one cycle
        expected = arrival.intercept * 500.0  # sine integrates to zero
        assert total == pytest.approx(expected, rel=0.02)

    def test_carry_preserves_fractions(self):
        arrival = SineArrival(1.0, period=100.0)
        arrival.noise_std = 0.0
        # rate ~ around 0.6/s; over 100 x 0.1s spans we should not lose
        # the fractional arrivals to rounding
        total = sum(arrival.count(t * 0.1, 0.1) for t in range(1000))
        assert total > 30

    def test_noise_changes_realisation_not_mean(self):
        quiet = SineArrival(100.0, 500.0, rng=np.random.default_rng(1))
        quiet.noise_std = 0.0
        noisy = SineArrival(100.0, 500.0, rng=np.random.default_rng(1))
        quiet_total = sum(quiet.count(t * 0.1, 0.1) for t in range(5000))
        noisy_total = sum(noisy.count(t * 0.1, 0.1) for t in range(5000))
        assert noisy_total != quiet_total
        assert noisy_total == pytest.approx(quiet_total, rel=0.05)
