"""Performance smoke tests (``-m perf_smoke``; run in the default suite too).

Each check spends ~a second driving an engine hot path and asserts a
*very* generous ceiling — an order of magnitude above what the fast
paths deliver on any reasonable machine. They exist to catch gross
regressions (an accidentally quadratic loop, a dropped cache, a silent
float64 upcast), not to measure: real numbers come from
``benchmarks/bench_perf_engine.py``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.tensor import Conv2D, default_dtype
from repro.tensor.im2col import _patch_indices, col2im, im2col

pytestmark = pytest.mark.perf_smoke


def best_of(fn, repeats: int = 3) -> float:
    """Smallest CPU time of this process over ``repeats`` runs.

    CPU time, not wall time: another job on the machine stretches the
    wall clock, not the CPU time, and CPU time is at least the wall time
    of a run that has the machine to itself, so the ceilings are no looser.
    """
    times = []
    for _ in range(repeats):
        start = time.process_time()
        fn()
        times.append(time.process_time() - start)
    return min(times)


def test_conv_forward_backward_under_ceiling(rng):
    """20 forward+backward passes of a CIFAR-ish conv layer in < 2 s.

    The fast path does this in well under 0.2 s; the old per-call
    index-building np.add.at path took around 1 s on a slow box.
    """
    conv = Conv2D(16, kernel_size=3, name="smoke_conv")
    conv.build((8, 16, 16), rng)
    x = rng.standard_normal((32, 8, 16, 16)).astype(default_dtype())

    def step():
        out = conv.forward(x, training=True)
        conv.backward(np.ones_like(out))

    step()  # warm the index caches before timing
    elapsed = best_of(lambda: [step() for _ in range(20)])
    assert elapsed < 2.0, f"20 conv fwd+bwd passes took {elapsed:.2f}s (ceiling 2s)"


def test_im2col_col2im_roundtrip_under_ceiling(rng):
    """50 im2col/col2im roundtrips on a 64-image batch in < 2 s."""
    x = rng.standard_normal((64, 3, 16, 16)).astype(default_dtype())

    def roundtrip():
        cols = im2col(x, 3, 3, 1, 1)
        col2im(cols, x.shape, 3, 3, 1, 1)

    roundtrip()
    elapsed = best_of(lambda: [roundtrip() for _ in range(50)])
    assert elapsed < 2.0, f"50 roundtrips took {elapsed:.2f}s (ceiling 2s)"


def test_patch_index_cache_hits():
    """Repeated same-geometry calls must come from the LRU cache."""
    _patch_indices.cache_clear()
    for _ in range(5):
        _patch_indices(3, 16, 16, 3, 3, 1, 1)
    info = _patch_indices.cache_info()
    assert info.misses == 1
    assert info.hits == 4


def test_bayesian_propose_under_ceiling():
    """10 proposals of a GP advisor that has 150 results, in < 0.3 s.

    Each fits the GP on 150 points and scores 500 candidates: about 2 ms
    with the ``cdist`` kernel and the inverse-factor product, about 3 ms
    with the per-coordinate NumPy kernel and a triangular solve (2-core
    Xeon).
    """
    from repro.core.tune import BayesianAdvisor, Trial, TrialResult, section71_space

    space = section71_space()
    advisor = BayesianAdvisor(space, rng=np.random.default_rng(0), constant_liar=False)
    rng = np.random.default_rng(1)
    for _ in range(150):
        params = space.sample(rng)
        performance = -float(np.sum((space.encode(params) - 0.6) ** 2))
        advisor.collect(TrialResult(trial=Trial(params=params), performance=performance,
                                    epochs=1, worker="w"))
    advisor.propose("w")  # load scipy before timing
    elapsed = best_of(lambda: [advisor.propose("w") for _ in range(10)])
    assert elapsed < 0.3, f"10 proposals at n = 150 took {elapsed:.3f}s (ceiling 0.3s)"
