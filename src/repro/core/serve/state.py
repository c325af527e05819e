"""RL state encoding (Section 5.2).

The state concatenates:

* the queue status — waiting times of the oldest requests, zero-padded
  or truncated to a fixed length, normalised by the SLO ``tau``
  (plus one scalar with the total queue length, which the fixed-length
  window alone cannot convey);
* the model status — the inference-time table ``c(m, b)`` for every
  model and candidate batch size, and each model's remaining time to
  finish the requests already dispatched to it.

For the single-model experiment (Section 7.2.1) the model status is
removed, as in the paper. Waits and remaining busy times are clipped at
``_WAIT_CLIP`` SLOs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.zoo.profiles import ModelProfile

__all__ = ["StateBuilder"]

#: waits and busy times beyond this many SLOs all look the same.
_WAIT_CLIP = 3.0


class StateBuilder:
    """Builds fixed-length state vectors for the RL controller."""

    def __init__(
        self,
        profiles: Sequence[ModelProfile],
        batch_sizes: Sequence[int],
        tau: float,
        queue_window: int = 32,
    ):
        self.profiles = list(profiles)
        self.batch_sizes = tuple(batch_sizes)
        self.tau = float(tau)
        self.queue_window = int(queue_window)
        #: the single-model state (Section 7.2.1) has no model status.
        self._model_status = len(self.profiles) > 1
        self._latency_table = np.array(
            [
                [p.inference_time(b) / self.tau for b in self.batch_sizes]
                for p in self.profiles
            ]
        ).ravel()

    @property
    def dim(self) -> int:
        base = self.queue_window + 1
        if self._model_status:
            base += self._latency_table.size + len(self.profiles)
        return base

    def build(self, queue, now: float, busy_until: Sequence[float]) -> np.ndarray:
        """Encode the current serving state as a flat vector."""
        waits = np.clip(queue.waiting_times(now, self.queue_window) / self.tau,
                        0.0, _WAIT_CLIP)
        length = np.array([np.log1p(len(queue)) / np.log1p(1000.0)])
        parts = [waits, length]
        if self._model_status:
            remaining = np.array(
                [max(until - now, 0.0) / self.tau for until in busy_until]
            )
            parts.extend([self._latency_table, np.clip(remaining, 0.0, _WAIT_CLIP)])
        return np.concatenate(parts)
