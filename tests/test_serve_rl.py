"""Tests for the RL pieces: action space, state builder, actor-critic."""

import numpy as np
import pytest

from serve_helpers import queue_of

from repro.core.serve import ActionSpace, ActorCritic, StateBuilder
from repro.exceptions import ConfigurationError
from repro.zoo import get_profile

PROFILES = [get_profile(n) for n in ("inception_v3", "inception_v4")]
BATCHES = (16, 32, 64)


class TestActionSpace:
    def test_size_matches_paper_formula(self):
        """|A| = (2^|M| - 1) * |B| (Section 5.2)."""
        space = ActionSpace(3, (16, 32, 48, 64))
        assert len(space) == (2**3 - 1) * 4

    def test_decode_covers_all_subsets(self):
        space = ActionSpace(2, BATCHES)
        subsets = {space.decode(i).subset for i in range(len(space))}
        assert subsets == {(0,), (1,), (0, 1)}

    def test_empty_selection_excluded(self):
        space = ActionSpace(2, BATCHES)
        assert all(space.decode(i).subset for i in range(len(space)))


class TestStateBuilder:
    def test_dim_with_and_without_model_status(self):
        # one model has no model status (Section 7.2.1)
        with_status = StateBuilder(PROFILES, BATCHES, tau=0.56, queue_window=8)
        without = StateBuilder(PROFILES[:1], BATCHES, tau=0.56, queue_window=8)
        assert with_status.dim == 8 + 1 + 2 * 3 + 2
        assert without.dim == 8 + 1

    def test_state_vector_shape_and_content(self):
        builder = StateBuilder(PROFILES, BATCHES, tau=0.56, queue_window=4)
        state = builder.build(queue_of([0.0, 0.2]), now=0.56, busy_until=[1.12, 0.0])
        assert state.shape == (builder.dim,)
        assert state[0] == pytest.approx(1.0)  # waited exactly tau
        # model 0 busy for another tau
        assert state[-2] == pytest.approx(1.0)
        assert state[-1] == pytest.approx(0.0)

    def test_waits_clipped(self):
        builder = StateBuilder(PROFILES, BATCHES, tau=0.1, queue_window=2)
        state = builder.build(queue_of([0.0]), now=100.0, busy_until=[200.0, 0.0])
        assert state[0] == 3.0  # waits and busy times clip at three SLOs
        assert state[-2] == 3.0


class TestActorCritic:
    def test_bandit_convergence(self):
        rng = np.random.default_rng(0)
        learner = ActorCritic(state_dim=4, num_actions=4, hidden=(16,), lr=5e-3,
                              gamma=0.0, horizon=32, seed=1)
        for _ in range(4000):
            context = int(rng.integers(0, 2))
            state = np.zeros(4)
            state[context] = 1.0
            action, token = learner.act(state)
            best = 0 if context == 0 else 3
            learner.complete(token, 1.0 if action == best else 0.0)
        for context, best in ((0, 0), (1, 3)):
            state = np.zeros(4)
            state[context] = 1.0
            probs = learner.probs(state)
            assert probs.argmax() == best
            assert probs[best] > 0.8

    def test_reward_without_action_rejected(self):
        learner = ActorCritic(state_dim=2, num_actions=3, seed=0)
        with pytest.raises(ConfigurationError):
            learner.complete(1, 1.0)
        _, token = learner.act(np.zeros(2))
        learner.complete(token, 1.0)
        with pytest.raises(ConfigurationError):
            learner.complete(token, 1.0)  # each action is paid once

    def test_entropy_coef_anneals(self):
        learner = ActorCritic(state_dim=2, num_actions=2, entropy_coef=0.1, horizon=4, seed=0)
        learner.entropy_decay, learner.entropy_min = 0.5, 0.01
        for _ in range(16):
            learner.complete(learner.act(np.zeros(2))[1], 0.0)
        assert learner.policy_opt.steps == 4
        assert learner.entropy_coef < 0.1

    def test_state_dict_roundtrip(self):
        a = ActorCritic(state_dim=3, num_actions=4, hidden=(8,), seed=1)
        b = ActorCritic(state_dim=3, num_actions=4, hidden=(8,), seed=2)
        b.load_state_dict(a.state_dict())
        state = np.array([0.1, 0.2, 0.3])
        np.testing.assert_allclose(
            a.probs(state), b.probs(state)
        )

    def test_invalid_gamma(self):
        with pytest.raises(ConfigurationError):
            ActorCritic(state_dim=2, num_actions=2, gamma=1.0)
