"""Tests for the reservoir sampler and latency quantiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.utils.reservoir import Reservoir


class TestReservoirBasics:
    def test_fills_up_exactly(self):
        reservoir = Reservoir(capacity=5)
        for value in range(3):
            reservoir.add_many([float(value)])
        assert len(reservoir) == 3
        assert sorted(reservoir.values()) == [0.0, 1.0, 2.0]

    def test_never_exceeds_capacity(self):
        reservoir = Reservoir(capacity=10)
        for value in range(1000):
            reservoir.add_many([float(value)])
        assert len(reservoir) == 10
        assert reservoir.stream_length == 1000

    def test_add_many_matches_semantics(self):
        reservoir = Reservoir(capacity=8)
        reservoir.add_many(np.arange(100, dtype=float))
        assert len(reservoir) == 8
        assert reservoir.stream_length == 100
        assert set(reservoir.values()) <= set(np.arange(100, dtype=float))

    def test_quantiles_of_known_distribution(self):
        reservoir = Reservoir(capacity=4096)
        reservoir.add_many(np.linspace(0.0, 1.0, 100_000))
        assert reservoir.quantile(0.5) == pytest.approx(0.5, abs=0.03)
        assert reservoir.quantile(0.99) == pytest.approx(0.99, abs=0.02)

    def test_sample_is_roughly_uniform_over_stream(self):
        """Late elements are as likely to survive as early ones."""
        reservoir = Reservoir(capacity=500)
        reservoir.add_many(np.arange(50_000, dtype=float))
        values = reservoir.values()
        # the sample mean tracks the stream mean (~25k)
        assert abs(values.mean() - 25_000) < 3_000

    def test_empty_quantile_rejected(self):
        with pytest.raises(ConfigurationError):
            Reservoir().quantile(0.5)

    def test_bad_q_rejected(self):
        reservoir = Reservoir()
        reservoir.add_many([1.0])
        with pytest.raises(ConfigurationError):
            reservoir.quantile(1.5)

    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            Reservoir(capacity=0)

    @given(st.lists(st.floats(-1e6, 1e6), max_size=200), st.integers(1, 50))
    @settings(max_examples=30)
    def test_invariants_hold_for_any_stream(self, stream, capacity):
        reservoir = Reservoir(capacity=capacity)
        reservoir.add_many(np.array(stream))
        assert len(reservoir) == min(len(stream), capacity)
        assert reservoir.stream_length == len(stream)
        if stream:
            sample = set(reservoir.values())
            assert sample <= set(stream)


    def test_quantile_follows_every_change_of_the_sample(self):
        reservoir = Reservoir(capacity=4)
        reservoir.add_many([1.0, 2.0, 3.0])
        assert reservoir.quantile(1.0) == 3.0
        for step in range(200):  # answers are remembered only while the sample stands
            if step % 2:
                reservoir.add_many([10.0 + step])
            else:
                reservoir.add_many([20.0 + step, 0.5])
            assert reservoir.quantile(1.0) == reservoir.values().max()
            assert reservoir.quantile(0.5) == float(np.quantile(reservoir.values(), 0.5))


    def test_quantile_is_numpys_linear_estimate(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            reservoir = Reservoir(capacity=int(rng.integers(1, 64)))
            reservoir.add_many(rng.normal(size=int(rng.integers(1, 200))))
            for q in (0.0, 0.5, 0.95, 1.0, float(rng.random())):
                assert reservoir.quantile(q) == float(np.quantile(reservoir.values(), q))


class TestServingLatencyQuantiles:
    def test_env_records_latency_distribution(self):
        from serve_helpers import serve

        from repro.core.serve import DEFAULT_BATCH_SIZES, GreedySingleController
        from repro.zoo import get_profile

        profile = get_profile("inception_v3")
        controller = GreedySingleController(profile, DEFAULT_BATCH_SIZES, tau=0.56)
        metrics, frontend = serve(controller, [profile], 150.0, 60.0, period=100.0)
        assert metrics.latencies.stream_length == metrics.total_served
        p50 = metrics.latency_quantile(0.5)
        p99 = metrics.latency_quantile(0.99)
        assert 0.0 < p50 <= p99
        # under capacity, nearly everything lands within the SLO
        assert p99 < 2 * 0.56
        # the front end's own (smaller) rolling sample saw the same stream
        assert frontend.latency_quantile(0.5) == pytest.approx(p50, abs=0.1)
