"""The actor-critic learner (Section 5.2).

A softmax policy network pi_theta(a|s) and a value network V(s), both
MLPs on the :mod:`repro.tensor` engine. An action's reward arrives
when its batch completes — possibly after later actions were taken —
and is routed back by token; rewarded transitions are buffered, and
every ``horizon`` of them the learner performs one
advantage-actor-critic update:

* returns: n-step discounted rewards bootstrapped with V at the last
  observed state;
* policy gradient: ``(probs - onehot) * normalised_advantage`` plus an
  annealed entropy bonus (the exploration/exploitation balance the
  paper handles with alpha-greedy elsewhere);
* value loss: MSE to the returns.

Every action is valid: a subset naming a busy model queues its batch
behind that model's in-flight work, which the state shows the policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ConfigurationError
from repro.tensor import Adam, Network
from repro.tensor.losses import softmax
from repro.zoo.builders import build_mlp

__all__ = ["ActorCritic", "Transition"]


@dataclass
class Transition:
    state: np.ndarray
    action: int
    reward: float


class ActorCritic:
    """Online advantage actor-critic over a discrete action space."""

    #: per-update decay of the entropy bonus, and the floor it decays to.
    entropy_decay = 0.9995
    entropy_min = 0.001

    def __init__(
        self,
        state_dim: int,
        num_actions: int,
        hidden: tuple[int, ...] = (64, 64),
        lr: float = 1e-3,
        gamma: float = 0.9,
        entropy_coef: float = 0.02,
        horizon: int = 64,
        seed: int = 0,
    ):
        if not 0.0 <= gamma < 1.0:
            raise ConfigurationError(f"gamma must be in [0, 1), got {gamma}")
        rng = np.random.default_rng(seed)
        self.policy: Network = build_mlp((state_dim,), num_actions, rng, hidden=hidden,
                                         name="policy")
        self.value: Network = build_mlp((state_dim,), 1, rng, hidden=hidden, name="value")
        self.policy_opt = Adam(lr=lr)
        self.value_opt = Adam(lr=lr)
        self.num_actions = int(num_actions)
        self.gamma = float(gamma)
        self.entropy_coef = float(entropy_coef)
        self.horizon = int(horizon)
        self._rng = rng
        self._buffer: list[Transition] = []
        self._open: dict[int, Transition] = {}
        #: actions sampled so far; the latest one's number is its token.
        self.decisions = 0

    # ------------------------------------------------------------------
    # acting
    # ------------------------------------------------------------------

    def probs(self, state: np.ndarray) -> np.ndarray:
        """Action probabilities at ``state``."""
        logits = self.policy.forward(state[None, :])[0]
        return softmax(logits[None, :])[0]

    def act(self, state: np.ndarray) -> tuple[int, int]:
        """Sample an action; returns ``(action, token)``.

        Several actions may be in flight at once (batches on different
        models complete out of order); the token routes
        each action's reward back to its transition.
        """
        state = np.asarray(state, dtype=np.float64)
        action = int(self._rng.choice(self.num_actions, p=self.probs(state)))
        self.decisions += 1
        token = self.decisions
        self._open[token] = Transition(state=state, action=action, reward=0.0)
        return action, token

    def complete(self, token: int, reward: float) -> None:
        """Attach a reward to an in-flight action and buffer the transition."""
        transition = self._open.pop(token, None)
        if transition is None:
            raise ConfigurationError(f"no open transition for token {token}")
        transition.reward = float(reward)
        self._buffer.append(transition)
        if len(self._buffer) >= self.horizon:
            self.update()

    # ------------------------------------------------------------------
    # learning
    # ------------------------------------------------------------------

    def update(self) -> None:
        """One A2C update over the buffered transitions."""
        if not self._buffer:
            return
        batch = self._buffer
        self._buffer = []
        states = np.vstack([t.state for t in batch])
        actions = np.array([t.action for t in batch])
        rewards = np.array([t.reward for t in batch])

        # n-step discounted returns bootstrapped with V(last state).
        values = self.value.forward(states).ravel()
        bootstrap = values[-1]
        returns = np.empty_like(rewards)
        running = bootstrap
        for i in range(len(batch) - 1, -1, -1):
            running = rewards[i] + self.gamma * running
            returns[i] = running

        advantages = returns - values
        std = advantages.std()
        if std > 1e-8:
            advantages = (advantages - advantages.mean()) / std

        # --- policy update -------------------------------------------
        self.policy.zero_grads()
        probs = softmax(self.policy.forward(states, training=True))
        onehot = np.zeros_like(probs)
        onehot[np.arange(len(batch)), actions] = 1.0
        grad = (probs - onehot) * advantages[:, None]
        # entropy bonus (gradient ascent on H): dH/dz = -p (log p + H)
        log_probs = np.log(np.clip(probs, 1e-12, None))
        entropy = -(probs * log_probs).sum(axis=1, keepdims=True)
        grad -= self.entropy_coef * (-probs * (log_probs + entropy))
        self.policy.backward(grad / len(batch))
        self.policy_opt.step(self.policy.params, self.policy.grads)

        # --- value update ---------------------------------------------
        self.value.zero_grads()
        predictions = self.value.forward(states, training=True).ravel()
        value_grad = (2.0 * (predictions - returns) / len(batch))[:, None]
        self.value.backward(value_grad)
        self.value_opt.step(self.value.params, self.value.grads)

        self.entropy_coef = max(self.entropy_coef * self.entropy_decay, self.entropy_min)

    # ------------------------------------------------------------------
    # persistence (master failure recovery checkpoints this state)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        """Policy + value parameters (checkpointed for recovery)."""
        state = {f"policy/{k}": v for k, v in self.policy.state_dict().items()}
        state.update({f"value/{k}": v for k, v in self.value.state_dict().items()})
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore policy + value parameters from a checkpoint."""
        self.policy.load_state_dict(
            {k[len("policy/"):]: v for k, v in state.items() if k.startswith("policy/")}
        )
        self.value.load_state_dict(
            {k[len("value/"):]: v for k, v in state.items() if k.startswith("value/")}
        )
