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

    def test_valid_mask_restricts_to_idle(self):
        space = ActionSpace(2, BATCHES)
        mask = space.valid_mask([True, False])
        for i in np.flatnonzero(mask):
            assert space.decode(i).subset == (0,)

    def test_selection_vector(self):
        space = ActionSpace(3, BATCHES)
        action = space.decode(len(space) - 1)
        vector = action.selection_vector(3)
        assert vector.dtype == bool
        assert list(np.flatnonzero(vector)) == list(action.subset)

    def test_mask_length_checked(self):
        with pytest.raises(ConfigurationError):
            ActionSpace(2, BATCHES).valid_mask([True])


class TestStateBuilder:
    def test_dim_with_and_without_model_status(self):
        with_status = StateBuilder(PROFILES, BATCHES, tau=0.56, queue_window=8)
        without = StateBuilder(PROFILES, BATCHES, tau=0.56, queue_window=8,
                               include_model_status=False)
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
        builder = StateBuilder(PROFILES, BATCHES, tau=0.1, queue_window=2, wait_clip=3.0)
        state = builder.build(queue_of([0.0]), now=100.0, busy_until=[0.0, 0.0])
        assert state[0] == 3.0


class TestActorCritic:
    def test_bandit_convergence(self):
        rng = np.random.default_rng(0)
        learner = ActorCritic(state_dim=4, num_actions=4, hidden=(16,), lr=5e-3,
                              gamma=0.0, horizon=32, seed=1)
        for _ in range(4000):
            context = int(rng.integers(0, 2))
            state = np.zeros(4)
            state[context] = 1.0
            action = learner.act(state)
            best = 0 if context == 0 else 3
            learner.give_reward(1.0 if action == best else 0.0)
        for context, best in ((0, 0), (1, 3)):
            state = np.zeros(4)
            state[context] = 1.0
            probs = learner.masked_probs(state, None)
            assert probs.argmax() == best
            assert probs[best] > 0.8

    def test_mask_prevents_invalid_actions(self):
        learner = ActorCritic(state_dim=2, num_actions=3, hidden=(8,), seed=0)
        mask = np.array([False, True, False])
        for _ in range(50):
            action = learner.act(np.zeros(2), mask)
            learner.give_reward(0.0)
            assert action == 1

    def test_all_invalid_mask_rejected(self):
        learner = ActorCritic(state_dim=2, num_actions=3, seed=0)
        with pytest.raises(ConfigurationError):
            learner.act(np.zeros(2), np.zeros(3, dtype=bool))

    def test_reward_without_action_rejected(self):
        learner = ActorCritic(state_dim=2, num_actions=3, seed=0)
        with pytest.raises(ConfigurationError):
            learner.give_reward(1.0)

    def test_entropy_coef_anneals(self):
        learner = ActorCritic(state_dim=2, num_actions=2, entropy_coef=0.1,
                              entropy_decay=0.5, entropy_min=0.01, horizon=4, seed=0)
        for _ in range(16):
            learner.act(np.zeros(2))
            learner.give_reward(0.0)
        assert learner.updates == 4
        assert learner.entropy_coef < 0.1

    def test_state_dict_roundtrip(self):
        a = ActorCritic(state_dim=3, num_actions=4, hidden=(8,), seed=1)
        b = ActorCritic(state_dim=3, num_actions=4, hidden=(8,), seed=2)
        b.load_state_dict(a.state_dict())
        state = np.array([0.1, 0.2, 0.3])
        np.testing.assert_allclose(
            a.masked_probs(state, None), b.masked_probs(state, None)
        )

    def test_invalid_gamma(self):
        with pytest.raises(ConfigurationError):
            ActorCritic(state_dim=2, num_actions=2, gamma=1.0)
