"""Task registry and model selection (Section 4.1).

Every built-in model is registered under a task (the table in Figure 2),
with metadata about training cost and per-dataset performance. Model
selection follows the paper's simple strategy: pick models with similar
performance but *different* architectures, to form a diverse set whose
ensemble accuracy will be boosted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.exceptions import ConfigurationError, ModelNotFoundError
from repro.zoo.builders import (
    build_mlp,
    build_resnet_mini,
    build_snoek_convnet,
    build_squeeze_mini,
    build_vgg_mini,
)

__all__ = ["ModelEntry", "TaskRegistry", "default_registry"]


@dataclass
class ModelEntry:
    """One registered model: architecture, builder, and meta data."""

    name: str
    task: str
    family: str
    builder: Callable
    performance: dict[str, float] = field(default_factory=dict)  # dataset -> accuracy

    def record_performance(self, dataset: str, accuracy: float) -> None:
        """Store observed accuracy for a dataset (kept as the best seen)."""
        current = self.performance.get(dataset)
        if current is None or accuracy > current:
            self.performance[dataset] = accuracy

    def typical_performance(self) -> float:
        """Mean accuracy across known datasets (consistency assumption)."""
        if not self.performance:
            return 0.0
        return sum(self.performance.values()) / len(self.performance)


class TaskRegistry:
    """Models grouped by task, with diverse-set selection."""

    #: how far below the best typical performance a selected model may be.
    tolerance = 0.1

    def __init__(self):
        self._by_task: dict[str, dict[str, ModelEntry]] = {}

    def register(self, entry: ModelEntry) -> None:
        models = self._by_task.setdefault(entry.task, {})
        if entry.name in models:
            raise ConfigurationError(f"model {entry.name!r} already registered for {entry.task!r}")
        models[entry.name] = entry

    def tasks(self) -> list[str]:
        return sorted(self._by_task)

    def models_for(self, task: str) -> list[ModelEntry]:
        if task not in self._by_task:
            raise ModelNotFoundError(f"no models registered for task {task!r}")
        return sorted(self._by_task[task].values(), key=lambda e: e.name)

    def get(self, task: str, name: str) -> ModelEntry:
        entries = self._by_task.get(task, {})
        if name not in entries:
            raise ModelNotFoundError(f"{name!r} (task {task!r})")
        return entries[name]

    def select_diverse(self, task: str, k: int = 2) -> list[ModelEntry]:
        """The paper's model-selection strategy.

        Sort models by typical performance; keep the top performer and
        then add models whose performance is within :attr:`tolerance` of it
        but whose *family* differs from the ones already chosen, up to
        ``k`` models. Falls back to same-family models only when no
        diverse candidate remains.
        """
        entries = self.models_for(task)
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        ranked = sorted(entries, key=lambda e: -e.typical_performance())
        chosen = [ranked[0]]
        families = {ranked[0].family}
        best = ranked[0].typical_performance()
        for entry in ranked[1:]:
            if len(chosen) == k:
                break
            if best - entry.typical_performance() > self.tolerance:
                continue
            if entry.family in families:
                continue
            chosen.append(entry)
            families.add(entry.family)
        for entry in ranked[1:]:
            if len(chosen) == k:
                break
            if entry not in chosen and best - entry.typical_performance() <= self.tolerance:
                chosen.append(entry)
        return chosen


def default_registry() -> TaskRegistry:
    """The built-in tasks and models of Figure 2's table.

    Object-detection and sentiment models reuse the architecture
    builders at suitable scales; their names follow the paper's table.
    """
    registry = TaskRegistry()
    image_models = [
        ModelEntry("vgg-mini", "ImageClassification", "vgg", build_vgg_mini),
        ModelEntry("resnet-mini", "ImageClassification", "resnet", build_resnet_mini),
        ModelEntry("squeeze-mini", "ImageClassification", "squeezenet", build_squeeze_mini),
        ModelEntry("snoek8", "ImageClassification", "plain", build_snoek_convnet),
    ]
    detection_models = [
        ModelEntry("yolo-mini", "ObjectDetection", "yolo", build_vgg_mini),
        ModelEntry("ssd-mini", "ObjectDetection", "ssd", build_resnet_mini),
        ModelEntry("faster-rcnn-mini", "ObjectDetection", "rcnn", build_snoek_convnet),
    ]
    sentiment_models = [
        ModelEntry("fasttext-mini", "SentimentAnalysis", "fasttext", build_mlp),
        ModelEntry("temporal-cnn-mini", "SentimentAnalysis", "cnn", build_mlp),
        ModelEntry("char-rnn-mini", "SentimentAnalysis", "rnn", build_mlp),
    ]
    for entry in image_models + detection_models + sentiment_models:
        registry.register(entry)
    return registry
