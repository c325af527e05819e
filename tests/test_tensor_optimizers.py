"""Tests for optimisers and learning-rate schedules."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.tensor import SGD, Adam, ConstantSchedule, ExponentialDecaySchedule


def quadratic_descent(optimizer, steps=200, start=5.0):
    """Minimise f(x) = x^2 with the optimizer; return final |x|."""
    params = {"x": np.array([start])}
    for _ in range(steps):
        grads = {"x": 2.0 * params["x"]}
        optimizer.step(params, grads)
    return abs(float(params["x"][0]))


class TestSchedules:
    def test_constant(self):
        schedule = ConstantSchedule(0.1)
        assert schedule(0) == schedule(1000) == 0.1

    def test_exponential_decay(self):
        schedule = ExponentialDecaySchedule(1.0, decay=0.9)
        assert schedule(1) == pytest.approx(0.9)
        assert schedule(2) == pytest.approx(0.81)

    def test_bad_schedule_params(self):
        with pytest.raises(ConfigurationError):
            ConstantSchedule(0.0)
        with pytest.raises(ConfigurationError):
            ExponentialDecaySchedule(0.1, decay=1.5)


class TestSGD:
    def test_converges_on_quadratic(self):
        assert quadratic_descent(SGD(lr=0.1)) < 1e-6

    def test_momentum_converges(self):
        assert quadratic_descent(SGD(lr=0.05, momentum=0.9), steps=400) < 1e-6

    def test_plain_step_is_exact(self):
        opt = SGD(lr=0.5)
        params = {"w": np.array([1.0, 2.0])}
        opt.step(params, {"w": np.array([1.0, 1.0])})
        np.testing.assert_allclose(params["w"], [0.5, 1.5])

    def test_weight_decay_only_on_matrices(self):
        """Decay applies to >=2-D tensors (weights), not biases."""
        opt = SGD(lr=1.0, weight_decay=0.1)
        params = {"W": np.ones((2, 2)), "b": np.ones(2)}
        grads = {"W": np.zeros((2, 2)), "b": np.zeros(2)}
        opt.step(params, grads)
        np.testing.assert_allclose(params["W"], 0.9 * np.ones((2, 2)))
        np.testing.assert_allclose(params["b"], np.ones(2))

    def test_schedule_is_used(self):
        opt = SGD(lr=ExponentialDecaySchedule(1.0, decay=0.5))
        params = {"w": np.array([1.0])}
        opt.step(params, {"w": np.array([1.0])})  # lr=1
        opt.step(params, {"w": np.array([1.0])})  # lr=0.5
        np.testing.assert_allclose(params["w"], [-0.5])

    def test_invalid_momentum(self):
        with pytest.raises(ConfigurationError):
            SGD(lr=0.1, momentum=1.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        assert quadratic_descent(Adam(lr=0.3), steps=400) < 1e-4

    def test_first_step_size_is_lr(self):
        """With bias correction, the first Adam step is ~lr."""
        opt = Adam(lr=0.1)
        params = {"w": np.array([1.0])}
        opt.step(params, {"w": np.array([5.0])})
        assert params["w"][0] == pytest.approx(0.9, abs=1e-6)
