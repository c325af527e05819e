"""Optimisers and learning-rate schedules.

The group-3 hyper-parameters of Table 1 — initial learning rate,
momentum, weight decay, and the decay method/rate — all live here so
that the tuning service can sweep them against real training runs.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "LearningRateSchedule",
    "ConstantSchedule",
    "ExponentialDecaySchedule",
    "Optimizer",
    "SGD",
    "Adam",
]


class LearningRateSchedule:
    """Maps a step index to a learning rate."""

    def __call__(self, step: int) -> float:
        raise NotImplementedError


class ConstantSchedule(LearningRateSchedule):
    """A fixed learning rate."""

    def __init__(self, lr: float):
        self.lr = check_positive("lr", lr)

    def __call__(self, step: int) -> float:
        return self.lr


class ExponentialDecaySchedule(LearningRateSchedule):
    """``lr * decay**step`` with ``decay`` slightly below 1."""

    def __init__(self, lr: float, decay: float = 0.999):
        self.lr = check_positive("lr", lr)
        if not 0.0 < decay <= 1.0:
            raise ConfigurationError(f"decay must be in (0, 1], got {decay}")
        self.decay = decay

    def __call__(self, step: int) -> float:
        return self.lr * self.decay**step


def _as_schedule(lr: float | LearningRateSchedule) -> LearningRateSchedule:
    if isinstance(lr, LearningRateSchedule):
        return lr
    return ConstantSchedule(float(lr))


class Optimizer:
    """Base optimiser: applies updates to named parameter dicts.

    ``step(params, grads)`` updates each array in ``params`` in place
    using the gradient under the same key. Per-parameter state (momentum
    buffers etc.) is keyed by parameter name, so warm-started networks
    keep independent state.
    """

    def __init__(self, lr: float | LearningRateSchedule, weight_decay: float = 0.0):
        self.schedule = _as_schedule(lr)
        self.weight_decay = check_non_negative("weight_decay", weight_decay)
        self.steps = 0
        # Reused scratch buffers for the weight-decayed gradient, keyed
        # by parameter name, so the hot loop allocates nothing per step.
        self._decay_buf: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        lr = self.schedule(self.steps)
        self.steps += 1
        for name, value in params.items():
            grad = grads[name]
            if self.weight_decay and value.ndim > 1:
                buf = self._decay_buf.get(name)
                if buf is None or buf.shape != value.shape or buf.dtype != value.dtype:
                    buf = np.empty_like(value)
                    self._decay_buf[name] = buf
                np.multiply(value, self.weight_decay, out=buf)
                buf += grad
                grad = buf
            self._update(name, value, grad, lr)

    def _update(self, name: str, param: np.ndarray, grad: np.ndarray, lr: float) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with momentum."""

    def __init__(
        self,
        lr: float | LearningRateSchedule = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(lr, weight_decay)
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity: dict[str, np.ndarray] = {}

    def _update(self, name: str, param: np.ndarray, grad: np.ndarray, lr: float) -> None:
        if self.momentum == 0.0:
            param -= lr * grad
            return
        vel = self._velocity.get(name)
        if vel is None:
            vel = np.zeros_like(param)
            self._velocity[name] = vel
        vel *= self.momentum
        vel -= lr * grad
        param += vel


class Adam(Optimizer):
    """Adam with bias correction."""

    #: decay of the first-moment estimate.
    beta1 = 0.9
    #: decay of the second-moment estimate.
    beta2 = 0.999
    #: added to the second moment's square root.
    eps = 1e-8

    def __init__(self, lr: float | LearningRateSchedule = 0.001):
        super().__init__(lr)
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def _update(self, name: str, param: np.ndarray, grad: np.ndarray, lr: float) -> None:
        m = self._m.setdefault(name, np.zeros_like(param))
        v = self._v.setdefault(name, np.zeros_like(param))
        t = self._t.get(name, 0) + 1
        self._t[name] = t
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad**2
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + self.eps)
