"""Shared fixtures."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.data import make_image_classification
from repro.utils.rng import RngStream

# Tier-1 draws fresh Hypothesis examples on every run (nothing is
# derandomised) and prints a failure's reproduction blob, so a case one
# run finds can be replayed with ``@reproduce_failure``.
settings.register_profile("tier1", print_blob=True)
settings.load_profile("tier1")


@pytest.fixture(autouse=True)
def _fresh_observability():
    """Per-test isolation for the process-wide observability globals.

    Every test gets a fresh metrics registry and tracer, and no fault
    plan installed, with the previous globals restored afterwards — so
    counters never leak between tests and a chaos test cannot poison
    its neighbours. The telemetry *clock* is deliberately left alone
    (profiler tests measure real time); use the ``manual_clock``
    fixture to pin it.
    """
    from repro import chaos, telemetry

    previous_registry = telemetry.set_registry(telemetry.MetricsRegistry())
    previous_tracer = telemetry.set_tracer(telemetry.Tracer())
    previous_plan = chaos.set_plan(None)
    yield
    chaos.set_plan(previous_plan)
    telemetry.set_tracer(previous_tracer)
    telemetry.set_registry(previous_registry)


@pytest.fixture
def manual_clock():
    """Install a :class:`~repro.telemetry.ManualClock` for the test."""
    from repro import telemetry

    clock = telemetry.ManualClock()
    previous = telemetry.set_clock(clock)
    yield clock
    telemetry.set_clock(previous)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def float64_engine():
    """Run the tensor engine in float64 (for numerical-gradient checks).

    Finite-difference gradients need double precision; the engine's
    float32 default is exercised by every other test.
    """
    from repro.tensor import set_default_dtype

    previous = set_default_dtype(np.float64)
    yield
    set_default_dtype(previous)


@pytest.fixture
def rng_stream() -> RngStream:
    return RngStream(1234)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small, learnable image dataset shared across tests."""
    return make_image_classification(
        name="tiny",
        num_classes=3,
        image_shape=(3, 8, 8),
        train_per_class=16,
        val_per_class=6,
        test_per_class=6,
        difficulty=0.3,
        seed=7,
    )
