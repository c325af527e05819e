"""The sine-wave request arrival process (Section 7.2, Figure 12).

The arrival rate is ``r(t) = gamma * sin(2*pi*t/T) + b`` with slope and
intercept solved from the paper's two conditions (Equations 8 and 9):

* the rate exceeds the target throughput ``r_target`` (either the
  system's maximum ``r_u`` or minimum ``r_l``) for 20% of every cycle,
  centred on the peak;
* the peak rate is ``1.1 * r_target`` so the queue cannot blow up.

With the peak at ``t = T/4``, exceeding the target for ``0.2 T`` means
``r(T/4 +/- 0.1 T) = r_target``, i.e. ``gamma*cos(0.2*pi) + b =
r_target`` while ``gamma + b = 1.1 * r_target``. The realised request
count over a span ``delta`` is ``delta * r(t) * (1 + phi)`` with
``phi ~ N(0, 0.1)``, the noise the paper injects to stop the RL
controller memorising the sine.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["SineArrival", "solve_sine_coefficients"]


def solve_sine_coefficients(target_rate: float) -> tuple[float, float]:
    """Solve Equations 8 and 9 for the sine slope ``gamma`` and intercept ``b``."""
    check_positive("target_rate", target_rate)
    cos_band = math.cos(0.2 * math.pi)
    gamma = 0.1 * target_rate / (1.0 - cos_band)
    intercept = 1.1 * target_rate - gamma
    return gamma, intercept


class SineArrival:
    """Generates noisy sine-modulated request counts."""

    #: standard deviation of the multiplicative noise phi on each span's count.
    noise_std = 0.1

    def __init__(
        self,
        target_rate: float,
        period: float,
        rng: np.random.Generator | None = None,
    ):
        check_positive("period", period)
        self.target_rate = float(target_rate)
        self.period = float(period)
        self.gamma, self.intercept = solve_sine_coefficients(target_rate)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._carry = 0.0  # fractional requests carried between spans

    def rate(self, t: float) -> float:
        """The deterministic arrival rate at time ``t`` (requests/s)."""
        return max(self.gamma * math.sin(2.0 * math.pi * t / self.period) + self.intercept, 0.0)

    def count(self, t: float, span: float) -> int:
        """Number of new requests over ``[t, t + span)``.

        ``span * r(t) * (1 + phi)``, accumulated so sub-request
        fractions are not lost at fine simulation steps.
        """
        noisy = span * self.rate(t) * (1.0 + self._rng.normal(0.0, self.noise_std))
        total = max(noisy, 0.0) + self._carry
        count = int(total)
        self._carry = total - count
        return count
