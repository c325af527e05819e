"""Tests for repro.utils: RNG streams and validation helpers."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.utils import RngStream, check_non_negative, check_positive, derive_rng


class TestDeriveRng:
    def test_same_name_same_stream(self):
        a = derive_rng(42, "x")
        b = derive_rng(42, "x")
        assert a.random() == b.random()

    def test_different_names_differ(self):
        a = derive_rng(42, "x")
        b = derive_rng(42, "y")
        assert a.random() != b.random()

    def test_different_seeds_differ(self):
        a = derive_rng(1, "x")
        b = derive_rng(2, "x")
        assert a.random() != b.random()

    @given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
    def test_deterministic_for_any_seed_and_name(self, seed, name):
        assert derive_rng(seed, name).random() == derive_rng(seed, name).random()


class TestRngStream:
    def test_get_returns_same_generator(self):
        stream = RngStream(7)
        assert stream.get("a") is stream.get("a")

    def test_streams_isolated(self):
        stream = RngStream(7)
        before = stream.get("a").random()
        stream.get("b").random()  # consuming b must not perturb a's sequence
        again = RngStream(7)
        again.get("a").random()
        assert again.get("a").random() != before or True  # sequence continues
        # the real isolation check: a's second draw matches a fresh replay
        replay = RngStream(7).get("a")
        replay.random()
        assert stream.get("a").random() == replay.random()


class TestValidation:
    def test_check_positive_accepts(self):
        assert check_positive("x", 0.5) == 0.5

    def test_check_positive_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="x must be > 0"):
            check_positive("x", 0)

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative("x", 0) == 0

    def test_check_non_negative_rejects(self):
        with pytest.raises(ConfigurationError):
            check_non_negative("x", -1)

