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

from typing import Any

import numpy as np

from repro.core.tune.advisors.base import TrialAdvisor
from repro.core.tune.advisors.gp import GaussianProcess, expected_improvement
from repro.core.tune.hyperspace import HyperSpace
from repro.core.tune.trial import TrialResult

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
        self._proposed = 0
        self._observed_x: list[np.ndarray] = []
        self._observed_y: list[float] = []
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
        self._observed_x.append(point)
        self._observed_y.append(result.performance)

    def propose(self, worker: str) -> dict[str, Any] | None:
        if self.max_proposals is not None and self._proposed >= self.max_proposals:
            return None
        self._proposed += 1
        # A backend may report NaN or inf: such a result stays in the
        # history but tells the GP nothing, so the fit sees finite ones.
        finite = [i for i, y in enumerate(self._observed_y) if np.isfinite(y)]
        if len(self._observed_y) < self.warmup or not finite:
            return self.space.sample(self._rng)
        xs = [self._observed_x[i] for i in finite]
        ys = [self._observed_y[i] for i in finite]
        best = max(ys)
        if self.constant_liar and self._pending:
            # Lie pessimistically about in-flight proposals (the worst
            # observation so far) so the EI surface dips around them.
            lie = min(ys)
            for point, _ in self._pending.values():
                xs.append(point)
                ys.append(lie)
        gp = GaussianProcess(length_scale=self.length_scale, noise_var=self.noise_var)
        gp.fit(np.vstack(xs), np.array(ys))
        pool = self._rng.random((self.candidates, self.space.dimensions))
        mean, std = gp.predict(pool)
        ei = expected_improvement(mean, std, best=best)
        chosen = pool[int(np.argmax(ei))]
        params = self.space.decode(chosen)
        self._pending[tuple(np.round(chosen, 12))] = (chosen, self.space.encode(params))
        return params
