"""Tests for the model zoo: profiles, registry, ensemble simulator."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, ModelNotFoundError
from repro.zoo import (
    EnsembleAccuracyModel,
    ModelEntry,
    PROFILES,
    default_registry,
    get_profile,
    list_profiles,
    majority_vote,
)
from repro.zoo.builders import build_mlp


class TestProfiles:
    def test_figure3_has_16_models(self):
        assert len(PROFILES) == 16

    def test_paper_operating_points_inception_v3(self):
        """The quoted c(16)=0.07 s and c(64)=0.235 s (Section 7.2.1)."""
        profile = get_profile("inception_v3")
        assert profile.inference_time(16) == pytest.approx(0.070, abs=1e-9)
        assert profile.inference_time(64) == pytest.approx(0.235, abs=1e-9)
        assert profile.throughput(64) == pytest.approx(272.3, abs=0.5)

    def test_paper_ensemble_throughputs(self):
        """Max 572 and min 128 requests/s for the 3-model set."""
        names = ("inception_v3", "inception_v4", "inception_resnet_v2")
        profiles = [get_profile(n) for n in names]
        max_throughput = sum(p.throughput(64) for p in profiles)
        min_throughput = min(p.throughput(16) for p in profiles)
        assert max_throughput == pytest.approx(572, abs=2)
        assert min_throughput == pytest.approx(128, abs=1)

    def test_latency_affine_increasing(self):
        for profile in PROFILES.values():
            assert profile.inference_time(64) > profile.inference_time(16) > 0

    def test_nasnet_large_is_most_accurate(self):
        ranked = list_profiles()
        assert ranked[0].name == "nasnet_large"

    def test_family_filter(self):
        vggs = list_profiles(family="vgg")
        assert {p.name for p in vggs} == {"vgg_16", "vgg_19"}

    def test_unknown_model(self):
        with pytest.raises(ModelNotFoundError):
            get_profile("alexnet")

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            get_profile("vgg_16").inference_time(0)


class TestMajorityVote:
    def test_unanimous(self):
        votes = np.array([[1, 2], [1, 2], [1, 2]])
        out = majority_vote(votes, np.array([0.7, 0.8, 0.9]))
        np.testing.assert_array_equal(out, [1, 2])

    def test_majority_beats_best_model(self):
        votes = np.array([[1], [1], [2]])
        out = majority_vote(votes, np.array([0.1, 0.1, 0.99]))
        assert out[0] == 1

    def test_tie_resolved_by_best_model(self):
        """Two models disagreeing is always a tie -> best model wins."""
        votes = np.array([[1], [2]])
        out = majority_vote(votes, np.array([0.7, 0.8]))
        assert out[0] == 2

    def test_three_way_tie(self):
        votes = np.array([[1], [2], [3]])
        out = majority_vote(votes, np.array([0.9, 0.7, 0.8]))
        assert out[0] == 1

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            majority_vote(np.zeros(3, dtype=int), np.zeros(3))


class TestEnsembleAccuracyModel:
    @pytest.fixture(scope="class")
    def panel(self):
        return EnsembleAccuracyModel(
            ("resnet_v2_101", "inception_v3", "inception_v4", "inception_resnet_v2"),
            num_examples=20_000,
        )

    def test_marginals_match_profiles(self, panel):
        for name in panel.model_names:
            simulated = panel.marginal_accuracy(name)
            assert simulated == pytest.approx(get_profile(name).top1_accuracy, abs=0.01)

    def test_two_model_ensemble_equals_better_member(self, panel):
        """The paper's observation: {resnet_v2_101, inception_v3}
        degenerates to inception_v3 and underperforms the single best."""
        pair = panel.ensemble_accuracy(("resnet_v2_101", "inception_v3"))
        v3 = panel.marginal_accuracy("inception_v3")
        best_single = panel.marginal_accuracy("inception_resnet_v2")
        assert pair == pytest.approx(v3, abs=1e-12)
        assert pair < best_single

    def test_more_models_generally_better(self, panel):
        three = panel.ensemble_accuracy(
            ("inception_v3", "inception_v4", "inception_resnet_v2")
        )
        four = panel.ensemble_accuracy(panel.model_names)
        best_single = panel.marginal_accuracy("inception_resnet_v2")
        assert three > best_single
        assert four > three

    def test_figure6_magnitudes(self, panel):
        """3-model ~0.81-0.82, 4-model ~0.82-0.83 as in Figure 6."""
        three = panel.ensemble_accuracy(
            ("inception_v3", "inception_v4", "inception_resnet_v2")
        )
        four = panel.ensemble_accuracy(panel.model_names)
        assert 0.805 < three < 0.825
        assert 0.815 < four < 0.835

    def test_accuracy_table_covers_all_subsets(self, panel):
        assert len(panel.accuracy_table()) == 2**4 - 1

    def test_selection_forms(self, panel):
        by_name = panel.ensemble_accuracy(("inception_v3", "inception_v4"))
        by_index = panel.ensemble_accuracy([1, 2])
        by_mask = panel.ensemble_accuracy(np.array([False, True, True, False]))
        assert by_name == by_index == by_mask

    def test_empty_selection_rejected(self, panel):
        with pytest.raises(ConfigurationError):
            panel.ensemble_accuracy(())

    def test_deterministic_panel(self):
        a = EnsembleAccuracyModel(("vgg_16", "vgg_19"), num_examples=5000)
        b = EnsembleAccuracyModel(("vgg_16", "vgg_19"), num_examples=5000)
        assert a.ensemble_accuracy((0, 1)) == b.ensemble_accuracy((0, 1))


def _reference_votes(model: EnsembleAccuracyModel) -> np.ndarray:
    """The panel as it was drawn with ``scipy.stats.norm.ppf``."""
    from scipy.stats import norm

    from repro.utils.rng import derive_rng

    rng = derive_rng(model.seed, "ensemble-panel")
    n, k = model.num_examples, len(model.model_names)
    difficulty = rng.normal(0.0, 1.0, size=n)
    distractor = rng.integers(1, model.num_classes, size=n)
    votes = np.zeros((k, n), dtype=np.int64)
    scale = np.sqrt(1.0 + model.sigma**2)
    for m, acc in enumerate(model.accuracies):
        skill = scale * norm.ppf(acc)
        eps = rng.normal(0.0, model.sigma, size=n)
        correct = (skill - difficulty + eps) > 0.0
        wrong_to_distractor = rng.random(n) < model.distractor_prob
        random_wrong = rng.integers(1, model.num_classes, size=n)
        votes[m] = np.where(
            correct, 0, np.where(wrong_to_distractor, distractor, random_wrong)
        )
    return votes


class TestFigure6PanelIsByteIdentical:
    """The panel draws skills with ``scipy.special.ndtri``; it must equal
    the one ``scipy.stats.norm.ppf`` drew, vote for vote and row for row."""

    MODELS = ("resnet_v2_101", "inception_v3", "inception_v4", "inception_resnet_v2")

    def test_votes_and_table_match_the_norm_ppf_panel(self):
        panel = EnsembleAccuracyModel(self.MODELS)
        votes = _reference_votes(panel)
        assert panel._votes.tobytes() == votes.tobytes()
        expected = {}
        for mask in range(1, 2 ** len(self.MODELS)):
            indices = [i for i in range(len(self.MODELS)) if mask >> i & 1]
            predictions = majority_vote(votes[indices], panel.accuracies[indices])
            expected[tuple(self.MODELS[i] for i in indices)] = float(np.mean(predictions == 0))
        assert panel.accuracy_table() == expected


class TestRegistry:
    def test_default_tasks_match_figure2(self):
        registry = default_registry()
        assert set(registry.tasks()) == {
            "ImageClassification",
            "ObjectDetection",
            "SentimentAnalysis",
        }

    def test_select_diverse_prefers_different_families(self):
        registry = default_registry()
        for name, acc in [("vgg-mini", 0.80), ("resnet-mini", 0.79),
                          ("squeeze-mini", 0.78), ("snoek8", 0.795)]:
            registry.get("ImageClassification", name).record_performance("d", acc)
        chosen = registry.select_diverse("ImageClassification", k=3)
        families = [entry.family for entry in chosen]
        assert len(set(families)) == 3
        assert chosen[0].name == "vgg-mini"  # best first

    def test_select_diverse_tolerance_filters_weak_models(self):
        registry = default_registry()
        registry.get("ImageClassification", "vgg-mini").record_performance("d", 0.9)
        registry.get("ImageClassification", "resnet-mini").record_performance("d", 0.5)
        chosen = registry.select_diverse("ImageClassification", k=2)
        assert [e.name for e in chosen] == ["vgg-mini"]

    def test_record_performance_keeps_best(self):
        entry = ModelEntry("m", "t", "f", build_mlp)
        entry.record_performance("d", 0.7)
        entry.record_performance("d", 0.5)
        assert entry.performance["d"] == 0.7

    def test_duplicate_registration_rejected(self):
        registry = default_registry()
        with pytest.raises(ConfigurationError):
            registry.register(ModelEntry("vgg-mini", "ImageClassification", "vgg", build_mlp))

    def test_unknown_task_and_model(self):
        registry = default_registry()
        with pytest.raises(ModelNotFoundError):
            registry.models_for("Translation")
        with pytest.raises(ModelNotFoundError):
            registry.get("ImageClassification", "ghost")
