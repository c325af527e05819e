"""Ensemble accuracy lookup for the serving reward.

The reward (Equation 7) needs the surrogate accuracy ``a(M[v])`` of any
model subset. The paper evaluates every combination on the ImageNet
validation set offline (Figure 6); here the
:class:`~repro.zoo.correlated.EnsembleAccuracyModel` panel plays that
role and all ``2^|M| - 1`` values are precomputed.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import ConfigurationError
from repro.zoo.correlated import EnsembleAccuracyModel

__all__ = ["EnsembleScorer"]


class EnsembleScorer:
    """Precomputed subset -> accuracy table over a fixed model list."""

    def __init__(self, model_names: Sequence[str]):
        self.model_names = tuple(model_names)
        panel = EnsembleAccuracyModel(self.model_names)
        self._table: dict[tuple[int, ...], float] = {}
        k = len(self.model_names)
        for mask in range(1, 2**k):
            subset = tuple(i for i in range(k) if mask >> i & 1)
            self._table[subset] = panel.ensemble_accuracy(subset)

    def accuracy(self, subset: Sequence[int]) -> float:
        """``a(M[v])`` for a subset of model indices."""
        key = tuple(sorted(int(i) for i in subset))
        if key not in self._table:
            raise ConfigurationError(f"unknown subset {key} over {len(self.model_names)} models")
        return self._table[key]

    @property
    def best_single(self) -> float:
        return max(self._table[(i,)] for i in range(len(self.model_names)))

    @property
    def full_ensemble(self) -> float:
        return self._table[tuple(range(len(self.model_names)))]
