"""Weight initialisers.

Each initialiser takes the parameter shape and an RNG and returns a new
array in the engine's default compute dtype (float32 unless overridden
via :func:`repro.tensor.set_default_dtype`). The Gaussian standard
deviation is itself one of the hyper-parameters tuned in the paper's
Section 7.1 experiments.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.dtype import default_dtype

__all__ = [
    "zeros_init",
    "gaussian_init",
    "glorot_uniform_init",
]


def zeros_init(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    """All-zeros (the conventional bias initialiser)."""
    return np.zeros(shape, dtype=default_dtype())


def gaussian_init(std: float = 0.01):
    """Zero-mean Gaussian initialiser with tunable standard deviation."""

    def _init(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.normal(0.0, std, size=shape).astype(default_dtype(), copy=False)

    return _init


def _fan_in_out(shape: tuple[int, ...]) -> tuple[int, int]:
    """Fan-in/fan-out for dense ``(in, out)`` and conv ``(out, in, kh, kw)`` shapes."""
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        receptive = shape[2] * shape[3]
        return shape[1] * receptive, shape[0] * receptive
    size = int(np.prod(shape))
    return size, size


def glorot_uniform_init(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    fan_in, fan_out = _fan_in_out(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(default_dtype(), copy=False)
