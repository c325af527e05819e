"""Correlated ensemble-accuracy simulation (Figure 6 substitute).

The paper measures ensemble accuracy on the ImageNet validation set.
Without that data, ensemble accuracy is simulated with a latent-trait
model:

* each validation example draws a shared *difficulty* ``d ~ N(0, 1)``;
* model ``m`` answers correctly iff ``skill_m - d + eps > 0`` where
  ``eps ~ N(0, sigma)`` is model-private noise. The shared ``d``
  correlates errors across models (hard images are hard for everyone),
  ``sigma`` controls ensemble diversity;
* ``skill_m`` is calibrated in closed form so the marginal accuracy of
  each model matches its Figure 3 top-1 accuracy exactly:
  ``P(correct) = Phi(skill / sqrt(1 + sigma^2)) = a_m``;
* a wrong model votes for the example's *distractor* class with
  probability ``q`` (shared confusions) and a random other class
  otherwise.

Majority voting with the paper's tie-break (the best-accuracy selected
model wins ties) is then evaluated over a fixed Monte-Carlo panel. The
model reproduces the paper's headline observations: accuracy generally
rises with ensemble size, and a two-model ensemble degenerates to the
better member (every disagreement is a tie), so
{resnet_v2_101, inception_v3} scores below inception_resnet_v2 alone.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import derive_rng
from repro.zoo.profiles import get_profile

__all__ = ["EnsembleAccuracyModel", "majority_vote"]


def majority_vote(votes: np.ndarray, model_accuracies: np.ndarray) -> np.ndarray:
    """Aggregate per-model label votes with best-model tie-break.

    ``votes`` has shape ``(num_models, num_examples)``; the return value
    has shape ``(num_examples,)``. Ties (including total disagreement)
    resolve to the vote of the most accurate model, as in Section 5.2.
    """
    if votes.ndim != 2:
        raise ConfigurationError(f"votes must be 2-D, got shape {votes.shape}")
    num_models, _num_examples = votes.shape
    if model_accuracies.shape[0] != num_models:
        raise ConfigurationError("one accuracy per model is required")
    best_model = int(np.argmax(model_accuracies))
    # counts[m, i] = how many models voted the same label as model m did.
    counts = (votes[:, None, :] == votes[None, :, :]).sum(axis=1)
    top = counts.max(axis=0)
    on_top = counts == top
    # Among top-count votes, a tie exists iff more than one distinct label
    # reaches the top count.
    masked_min = np.where(on_top, votes, np.iinfo(votes.dtype).max).min(axis=0)
    masked_max = np.where(on_top, votes, np.iinfo(votes.dtype).min).max(axis=0)
    tie = masked_min != masked_max
    return np.where(tie, votes[best_model], masked_min)


class EnsembleAccuracyModel:
    """Monte-Carlo ensemble accuracy over the latent-trait panel.

    ``num_examples`` sizes the panel: the Figure 6 table uses the
    default, and tests pass a smaller panel to run fast.
    """

    #: standard deviation of each model's per-example noise.
    sigma = 0.25
    #: chance a wrong vote goes to the example's shared distractor class.
    distractor_prob = 0.35
    #: the ImageNet label space the votes fall in.
    num_classes = 1000
    #: the panel's seed: every run draws the same examples.
    seed = 2018

    def __init__(self, model_names: tuple[str, ...] | list[str], num_examples: int = 40_000):
        if len(model_names) == 0:
            raise ConfigurationError("at least one model is required")
        self.model_names = tuple(model_names)
        self.num_examples = int(num_examples)
        self.accuracies = np.array(
            [get_profile(name).top1_accuracy for name in self.model_names]
        )
        self._votes = self._simulate_votes()
        self._true = np.zeros(self.num_examples, dtype=np.int64)  # WLOG class 0 is truth
        self._cache: dict[tuple[int, ...], float] = {}

    def _simulate_votes(self) -> np.ndarray:
        # ndtri is what scipy.stats.norm.ppf computes underneath, so the
        # panel is unchanged; importing it here keeps scipy out of start-up.
        from scipy.special import ndtri

        rng = derive_rng(self.seed, "ensemble-panel")
        n, k = self.num_examples, len(self.model_names)
        difficulty = rng.normal(0.0, 1.0, size=n)
        # Per-example distractor class (shared wrong answer), never 0.
        distractor = rng.integers(1, self.num_classes, size=n)
        votes = np.zeros((k, n), dtype=np.int64)
        scale = np.sqrt(1.0 + self.sigma**2)
        for m, acc in enumerate(self.accuracies):
            skill = scale * ndtri(acc)
            eps = rng.normal(0.0, self.sigma, size=n)
            correct = (skill - difficulty + eps) > 0.0
            wrong_to_distractor = rng.random(n) < self.distractor_prob
            random_wrong = rng.integers(1, self.num_classes, size=n)
            votes[m] = np.where(
                correct, 0, np.where(wrong_to_distractor, distractor, random_wrong)
            )
        return votes

    def ensemble_accuracy(self, selection) -> float:
        """Accuracy of majority voting over the selected model subset.

        ``selection`` is an iterable of model names, an iterable of
        integer model indices, or a boolean mask array over
        ``model_names``.
        """
        indices = self._selection_indices(selection)
        key = tuple(indices)
        if key in self._cache:
            return self._cache[key]
        votes = self._votes[indices]
        predictions = majority_vote(votes, self.accuracies[indices])
        accuracy = float(np.mean(predictions == self._true))
        self._cache[key] = accuracy
        return accuracy

    def accuracy_table(self) -> dict[tuple[str, ...], float]:
        """Ensemble accuracy for every non-empty subset (2^k - 1 rows)."""
        k = len(self.model_names)
        table: dict[tuple[str, ...], float] = {}
        for mask in range(1, 2**k):
            indices = [i for i in range(k) if mask >> i & 1]
            names = tuple(self.model_names[i] for i in indices)
            table[names] = self.ensemble_accuracy(indices)
        return table

    def _selection_indices(self, selection) -> list[int]:
        if isinstance(selection, np.ndarray) and selection.dtype == bool:
            if selection.shape[0] != len(self.model_names):
                raise ConfigurationError(
                    f"mask length {selection.shape[0]} != {len(self.model_names)} models"
                )
            indices = [int(i) for i in np.flatnonzero(selection)]
        else:
            items = list(selection)
            if items and all(isinstance(item, str) for item in items):
                indices = sorted(self.model_names.index(item) for item in items)
            else:
                indices = sorted(int(i) for i in items)
        if not indices:
            raise ConfigurationError("selection must include at least one model")
        if indices[0] < 0 or indices[-1] >= len(self.model_names):
            raise ConfigurationError(f"model index out of range: {indices}")
        return indices
