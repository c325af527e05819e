"""Tests for dispatch-policy decision logic, including RL's gated dispatch."""

import numpy as np
import pytest
from serve_helpers import TAU, serve, view_of

from repro.cluster import CheckpointStore
from repro.core.serve import (
    DEFAULT_BATCH_SIZES,
    BatchOutcome,
    Dispatch,
    EnsembleScorer,
    GreedySyncController,
    RLController,
    Wait,
)
from repro.exceptions import ConfigurationError
from repro.zoo import get_profile

PROFILE = get_profile("inception_v3")


def outcome_of(decision, latencies=(), overdue=0):
    """The facts the loop would report for ``decision``."""
    return BatchOutcome(decision.models, decision.batch_size, 0.0,
                        list(latencies), overdue, decision.token)


class TestRLImmediateDispatch:
    def _controller(self):
        return RLController([PROFILE], DEFAULT_BATCH_SIZES, TAU, seed=0)

    def test_dispatches_immediately_with_queue_and_idle_model(self):
        controller = self._controller()
        decision = controller.decide(view_of([0.0] * 4, now=0.01, busy_until=[0.0]))
        assert isinstance(decision, Dispatch)
        assert decision.take == min(decision.batch_size, 4)
        assert decision.batch_size in DEFAULT_BATCH_SIZES

    def test_take_never_exceeds_queue(self):
        controller = self._controller()
        for length in (1, 5, 40, 200):
            decision = controller.decide(view_of([0.0] * length, now=0.01))
            controller.on_complete(outcome_of(decision))
            assert isinstance(decision, Dispatch)
            assert decision.take <= length

    def test_busy_model_waits_without_sampling(self):
        controller = self._controller()
        decision = controller.decide(view_of([0.0] * 100, now=0.0, busy_until=[5.0]))
        # asked again the moment the model frees
        assert decision == Wait(until=5.0)
        assert controller.learner.decisions == 0

    def test_empty_queue_waits(self):
        assert self._controller().decide(view_of([], now=0.0)) == Wait(None)

    def test_reward_routing_is_per_dispatch(self):
        controller = self._controller()
        first = controller.decide(view_of([0.0] * 8, now=0.01))
        second = controller.decide(view_of([0.0] * 8, now=0.02))
        # outcomes may arrive in any order; each pays its own action once
        controller.on_complete(outcome_of(second, [0.1] * second.take))
        controller.on_complete(outcome_of(first, [0.9] * first.take, overdue=first.take))
        with pytest.raises(ConfigurationError):
            controller.on_complete(outcome_of(first))  # already paid

    def test_reward_pairs_with_dispatched_action(self):
        """Every dispatch is followed by exactly one reward."""
        controller = self._controller()
        metrics, _ = serve(controller, [PROFILE], 150.0, 50.0, period=100.0)
        # the learner saw one (state, action, reward) per dispatch
        assert controller.learner.decisions == len(metrics.dispatches)
        assert not controller.learner._open

    def test_reward_is_equation_7(self):
        scorer = EnsembleScorer(("inception_v3", "inception_v4"))
        profiles = [get_profile(n) for n in scorer.model_names]

        def paid(shaping, beta):
            controller = RLController(profiles, DEFAULT_BATCH_SIZES, TAU, seed=0,
                                      scorer=scorer, beta=beta, reward_shaping=shaping)
            decision = controller.decide(view_of([0.0] * 10, now=0.01))
            controller.on_complete(outcome_of(decision, [0.1] * 8 + [0.9] * 2, overdue=2))
            (transition,) = controller.learner._buffer
            return transition.reward, scorer.accuracy(decision.models)

        reward, accuracy = paid("batch", 1.0)
        assert reward == pytest.approx(accuracy * (10 - 2) / 64)
        reward, accuracy = paid("per_request", 4.0)
        assert reward == pytest.approx(accuracy * (10 - 4.0 * 2) / 10)


class TestSyncControllerEdge:
    def test_waits_when_any_model_busy(self):
        profiles = [get_profile(n) for n in ("inception_v3", "inception_v4")]
        controller = GreedySyncController(profiles, DEFAULT_BATCH_SIZES, TAU)
        view = view_of([0.0] * 100, now=0.0, busy_until=[0.0, 3.0])
        assert isinstance(controller.decide(view), Wait)


class TestServingMasterRecovery:
    """Section 6.3: the inference master's RL state is checkpointed."""

    def test_actor_critic_state_survives_restart(self):
        profiles = [get_profile(n) for n in
                    ("inception_v3", "inception_v4", "inception_resnet_v2")]
        scorer = EnsembleScorer(tuple(p.name for p in profiles))
        controller = RLController(profiles, DEFAULT_BATCH_SIZES, TAU, seed=1,
                                  scorer=scorer)
        serve(controller, profiles, 120.0, 60.0, seed=1, period=100.0)

        store = CheckpointStore()
        store.save("serve-master", controller.learner.state_dict())

        # "restart": a fresh controller restored from the checkpoint
        replacement = RLController(profiles, DEFAULT_BATCH_SIZES, TAU, seed=99,
                                   scorer=scorer)
        replacement.learner.load_state_dict(store.restore("serve-master"))
        state = np.zeros(controller.state_builder.dim)
        np.testing.assert_allclose(
            controller.learner.probs(state),
            replacement.learner.probs(state),
        )
