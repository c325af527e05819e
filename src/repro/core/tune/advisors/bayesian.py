"""Gaussian-process Bayesian optimisation advisor.

Assumes the tuning objective follows a Gaussian process (Snoek et al.)
and proposes the candidate maximising expected improvement over a
random candidate pool. The first ``warmup`` proposals are random, which
bootstraps the posterior.

With several distributed workers the advisor is asked for new trials
before earlier proposals have reported back; a plain GP would then keep
proposing (near-)identical points. The *constant liar* heuristic
(Ginsbourger et al.) fits those pending points with a pessimistic fake
observation so concurrent proposals spread out.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.core.tune.advisors.base import TrialAdvisor
from repro.core.tune.advisors.gp import GaussianProcess, expected_improvement
from repro.core.tune.hyperspace import HyperSpace
from repro.core.tune.trial import TrialResult
from repro.exceptions import ConfigurationError

__all__ = ["BayesianAdvisor"]


class BayesianAdvisor(TrialAdvisor):
    """GP + expected-improvement search over the encoded knob space."""

    def __init__(
        self,
        space: HyperSpace,
        rng: np.random.Generator | None = None,
        warmup: int = 8,
        candidates: int = 500,
        length_scale: float = 0.2,
        noise_var: float = 5e-3,
        max_proposals: int | None = None,
        constant_liar: bool = True,
    ):
        super().__init__(space)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.warmup = int(warmup)
        self.candidates = int(candidates)
        self.length_scale = float(length_scale)
        self.noise_var = float(noise_var)
        self.max_proposals = max_proposals
        self.constant_liar = bool(constant_liar)
        if self.warmup < 0:
            raise ConfigurationError(f"warmup must be >= 0, got {warmup}")
        if self.candidates < 1:
            raise ConfigurationError(f"candidates must be >= 1, got {candidates}")
        if not self.length_scale > 0:
            raise ConfigurationError(f"length_scale must be > 0, got {length_scale}")
        if not self.noise_var >= 0:
            raise ConfigurationError(f"noise_var must be >= 0, got {noise_var}")
        self._proposed = 0
        #: the results with a finite performance, the ones the GP fits: their
        #: encoded points in the first ``len(self._finite_y)`` rows of a
        #: matrix that doubles when full, and their performances.
        self._finite_x = np.empty((8, space.dimensions))
        self._finite_y: list[float] = []
        #: proposals awaiting results, keyed by their encoded point: the
        #: candidate the liar lies at, and the encoding of the trial it
        #: decodes to, which is what the result will report.
        self._pending: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

    def collect(self, result: TrialResult) -> None:
        super().collect(result)
        point = self.space.encode(result.trial.params)
        # Retire the matching pending proposal. Int and categorical knobs
        # snap to their grid and post-hooks rewrite values, so a result
        # encodes to its decoded candidate, not to the candidate itself
        # (match by distance: float round-trips can shift a point slightly).
        for key, (_, reported) in list(self._pending.items()):
            if np.max(np.abs(reported - point)) < 1e-6:
                del self._pending[key]
                break
        # A backend may report NaN or inf: such a result stays in the
        # history (and counts towards warm-up) but tells the GP nothing.
        if math.isfinite(result.performance):
            count = len(self._finite_y)
            if count == len(self._finite_x):
                grown = np.empty((2 * count, point.shape[0]))
                grown[:count] = self._finite_x
                self._finite_x = grown
            self._finite_x[count] = point
            self._finite_y.append(result.performance)

    def propose(self, worker: str) -> dict[str, Any] | None:
        if self.max_proposals is not None and self._proposed >= self.max_proposals:
            return None
        self._proposed += 1
        ys = self._finite_y
        if self.num_results < self.warmup or not ys:
            return self.space.sample(self._rng)
        xs = self._finite_x[:len(ys)]
        best = max(ys)
        if self.constant_liar and self._pending:
            # Lie pessimistically about in-flight proposals (the worst
            # observation so far) so the EI surface dips around them.
            xs = np.vstack([xs, *(point for point, _ in self._pending.values())])
            ys = ys + [min(ys)] * len(self._pending)
        gp = GaussianProcess(length_scale=self.length_scale, noise_var=self.noise_var)
        gp.fit(xs, np.array(ys))
        pool = self._rng.random((self.candidates, self.space.dimensions))
        mean, std = gp.predict(pool)
        ei = expected_improvement(mean, std, best=best)
        chosen = pool[int(np.argmax(ei))]
        params = self.space.decode(chosen)
        self._pending[tuple(np.round(chosen, 12))] = (chosen, self.space.encode(params))
        return params
