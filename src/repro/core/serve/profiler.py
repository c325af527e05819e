"""Latency profiling of deployed networks.

The paper's model cards (Figure 3) were measured by running each model
50 iterations per batch size. This module does the same for networks
deployed on the NumPy engine: it times forward passes across the
candidate batch sizes and fits the affine latency model

    c(b) = overhead_s + per_image_s * b

by least squares, yielding a :class:`~repro.zoo.profiles.ModelProfile`
that the serving environment and controllers can consume. This is how a
*real* deployment (rather than a Figure 3 card) enters the
accuracy/latency optimisation.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.tensor.network import Network
from repro.zoo.profiles import ModelProfile

__all__ = ["profile_network", "fit_affine_latency"]


def fit_affine_latency(batch_sizes: Sequence[int], times: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit of ``times ~ overhead + per_image * batch``.

    Returns ``(overhead_s, per_image_s)``; both are clamped to be
    non-negative (a tiny negative intercept can fall out of noisy
    measurements).
    """
    sizes = np.asarray(batch_sizes, dtype=np.float64)
    observed = np.asarray(times, dtype=np.float64)
    if sizes.shape != observed.shape or sizes.size < 2:
        raise ConfigurationError("need >= 2 (batch size, time) observations")
    design = np.vstack([np.ones_like(sizes), sizes]).T
    (overhead, per_image), *_ = np.linalg.lstsq(design, observed, rcond=None)
    return max(float(overhead), 0.0), max(float(per_image), 1e-9)


def profile_network(
    network: Network,
    name: str,
    batch_sizes: Sequence[int] = (1, 8, 16, 32),
    iterations: int = 5,
    accuracy: float = 0.0,
    clock=None,
) -> ModelProfile:
    """Measure a network's forward latency and build a model card.

    ``iterations`` forward passes are timed per batch size (after one
    warm-up pass) and the per-batch median feeds the affine fit. The
    memory figure is the parameter footprint. Timing reads the
    injectable telemetry clock unless ``clock`` (a ``() -> seconds``
    callable) overrides it, so tests can make the measurements exact.
    """
    if clock is None:
        clock = telemetry.get_clock().now
    if network.input_shape is None:
        raise ConfigurationError("network must be built before profiling")
    sizes = sorted(set(int(b) for b in batch_sizes))
    if len(sizes) < 2 or sizes[0] < 1:
        raise ConfigurationError(f"need >= 2 positive batch sizes, got {batch_sizes}")
    rng = np.random.default_rng(0)
    medians = []
    with telemetry.get_tracer().span("profile_network", model=name) as span:
        for batch in sizes:
            x = rng.normal(size=(batch, *network.input_shape))
            network.forward(x)  # warm-up
            samples = []
            for _ in range(iterations):
                start = clock()
                network.forward(x)
                samples.append(clock() - start)
            medians.append(float(np.median(samples)))
        span.tag(batch_sizes=list(sizes), iterations=iterations)
    # looked up per run: a free function has no owner to build the family
    telemetry.get_registry().counter(
        "repro_serve_profile_runs_total", "Deployed-network profiling runs."
    ).inc()
    overhead, per_image = fit_affine_latency(sizes, medians)
    memory_mb = sum(p.nbytes for p in network.params.values()) / 1e6
    return ModelProfile(
        name=name,
        family="deployed",
        top1_accuracy=float(accuracy),
        overhead_s=overhead,
        per_image_s=per_image,
        memory_mb=memory_mb,
    )
