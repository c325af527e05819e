"""The serving reward (Equation 7) and SLO accounting.

For one dispatched batch, the reward is

    a(M[v]) * (b - beta * |{s in batch : l(s) > tau}|)

where ``a(M[v])`` is the (surrogate, validation-set) accuracy of the
selected ensemble, ``b`` the number of requests served, and ``beta``
the accuracy/latency balance. The exceeding-time objective for the
single-model case (Equation 5) is also provided for evaluation.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_non_negative

__all__ = ["batch_reward", "mean_exceeding_time"]


def batch_reward(accuracy: float, served: int, overdue: int, beta: float,
                 normalizer: float = 1.0) -> float:
    """Equation 7, optionally normalised (e.g. by ``max(B)``) for RL."""
    check_non_negative("served", served)
    check_non_negative("overdue", overdue)
    return accuracy * (served - beta * overdue) / normalizer


def mean_exceeding_time(latencies: np.ndarray, tau: float) -> float:
    """Equation 5: mean of ``max(0, l(s) - tau)`` over the requests."""
    if latencies.size == 0:
        return 0.0
    return float(np.mean(np.maximum(latencies - tau, 0.0)))
