"""Dispatch policies: the greedy baselines and the RL scheduler.

Each is a :class:`~repro.core.serve.policy.DispatchPolicy` the
:class:`~repro.core.serve.frontend.ServeFrontend` consults while
requests are queued; it answers :class:`Dispatch` (which models run
which batch now) or :class:`Wait` (optionally: until a specific time,
used by the greedy batcher's SLO deadline). All of them only use
models that are idle, so a busy fleet answers a bare ``Wait()`` and is
asked again when a batch completes.

* :class:`GreedySingleController` — Algorithm 3 with one model
  (Section 7.2.1's greedy baseline);
* :class:`GreedySyncController` — all models run every batch
  synchronously (the first multi-model baseline, Figure 14);
* :class:`GreedyAsyncController` — one model per batch, no ensemble
  (the second baseline, Figure 15);
* :class:`RLController` — the actor-critic scheduler jointly choosing
  batch size and model subset against Equation 7 (Section 5.2).
"""

from __future__ import annotations

from typing import Sequence

from repro import telemetry
from repro.core.serve.actions import ActionSpace
from repro.core.serve.actor_critic import ActorCritic
from repro.core.serve.batching import GreedyBatcher
from repro.core.serve.ensemble import EnsembleScorer
from repro.core.serve.policy import BatchOutcome, Dispatch, DispatchPolicy, DispatchView, Wait
from repro.core.serve.reward import batch_reward
from repro.core.serve.state import StateBuilder
from repro.exceptions import ConfigurationError
from repro.zoo.profiles import ModelProfile

__all__ = [
    "GreedySingleController",
    "GreedySyncController",
    "GreedyAsyncController",
    "RLController",
]


class GreedySingleController(GreedyBatcher):
    """Algorithm 3 over a single deployed model."""

    def __init__(self, profile: ModelProfile, batch_sizes: Sequence[int], tau: float,
                 backoff: float | None = None):
        super().__init__(batch_sizes, profile.inference_time, tau, backoff, models=(0,))


class GreedySyncController(GreedyBatcher):
    """All models ensemble every batch; batch sized by the slowest model."""

    def __init__(self, profiles: Sequence[ModelProfile], batch_sizes: Sequence[int], tau: float):
        def slowest(batch: int) -> float:
            return max(p.inference_time(batch) for p in profiles)

        super().__init__(batch_sizes, slowest, tau, models=range(len(profiles)))


class GreedyAsyncController(DispatchPolicy):
    """One model per batch (no ensemble), models drained round-robin."""

    def __init__(self, profiles: Sequence[ModelProfile], batch_sizes: Sequence[int], tau: float):
        self.batchers = [
            GreedyBatcher(batch_sizes, p.inference_time, tau, models=(m,))
            for m, p in enumerate(profiles)
        ]
        self._next = 0

    def decide(self, view: DispatchView) -> Dispatch | Wait:
        count = len(self.batchers)
        idle = [m for m in range(count) if view.model_idle(m)]
        if not idle:
            return Wait()
        # Round-robin over idle models so the fleet shares the load.
        model = min(idle, key=lambda m: (m - self._next) % count)
        decision = self.batchers[model].decide(view)
        if isinstance(decision, Dispatch):
            self._next = (model + 1) % count
        return decision


class RLController(DispatchPolicy):
    """Actor-critic over the joint (subset, batch size) action space.

    Decisions are immediate: whenever requests are queued and at least
    one model is idle, the policy picks ``(v, b)`` and the ``min(b,
    len(q))`` oldest requests are dispatched right away. A selected
    model that is still busy queues the batch behind its in-flight work
    — the state's remaining-busy-time features let the policy reason
    about (and learn to avoid) that.

    The learner's reward is Equation 7, computed here from each
    batch's :class:`BatchOutcome` when it is reported: ``a(M[v]) * (take
    - beta * overdue)``, with ``a`` from ``scorer`` (one model needs
    none: its profile's accuracy). ``reward_shaping`` picks the
    normaliser: ``"batch"`` divides by max(B); ``"per_request"``
    divides by the served count instead, which keeps the
    ensemble-accuracy signal at constant scale across arrival phases
    (raise ``beta`` to restore the throughput incentive that weakens).
    """

    def __init__(
        self,
        profiles: Sequence[ModelProfile],
        batch_sizes: Sequence[int],
        tau: float,
        queue_window: int = 32,
        hidden: tuple[int, ...] = (64, 64),
        lr: float = 1e-3,
        gamma: float = 0.9,
        entropy_coef: float = 0.02,
        horizon: int = 64,
        seed: int = 0,
        scorer: EnsembleScorer | None = None,
        beta: float = 1.0,
        reward_shaping: str = "batch",
    ):
        if scorer is None and len(profiles) > 1:
            raise ConfigurationError("multi-model serving needs an EnsembleScorer")
        if reward_shaping not in ("batch", "per_request"):
            raise ConfigurationError(
                f"reward_shaping must be 'batch' or 'per_request', got {reward_shaping!r}"
            )
        self.profiles = list(profiles)
        self.tau = float(tau)
        self.scorer = scorer
        self.beta = float(beta)
        self.reward_shaping = reward_shaping
        self.state_builder = StateBuilder(profiles, batch_sizes, tau, queue_window)
        self.action_space = ActionSpace(len(profiles), batch_sizes)
        self.learner = ActorCritic(
            state_dim=self.state_builder.dim,
            num_actions=len(self.action_space),
            hidden=hidden,
            lr=lr,
            gamma=gamma,
            entropy_coef=entropy_coef,
            horizon=horizon,
            seed=seed,
        )
        actions = telemetry.Counter(
            "repro_serve_rl_actions_total",
            "Actor-critic dispatch actions, by ensemble size.", telemetry.get_registry(),
        )
        #: ensemble size -> its bound action count.
        self._actions = {
            size: actions.labels(models=str(size)) for size in range(1, len(profiles) + 1)
        }

    def decide(self, view: DispatchView) -> Dispatch | Wait:
        count = len(self.profiles)
        if not view.queue:
            return Wait()
        if not any(view.model_idle(m) for m in range(count)):
            # A model of a subset batch frees before its batch completes.
            return Wait(until=min(view.busy_until))
        busy_until = view.busy_until if len(view.busy_until) else [0.0] * count
        state = self.state_builder.build(view.queue, view.now, busy_until)
        action_index, token = self.learner.act(state)
        action = self.action_space.decode(action_index)
        self._actions[len(action.subset)].inc()
        take = min(action.batch_size, len(view.queue))
        return Dispatch(action.subset, action.batch_size, take, token)

    def on_complete(self, outcome: BatchOutcome) -> None:
        """Pay the action its Equation-7 reward (0 if the batch never ran)."""
        accuracy = (
            self.scorer.accuracy(outcome.models)
            if self.scorer is not None
            else self.profiles[0].top1_accuracy
        )
        if self.reward_shaping == "per_request":
            normalizer = max(outcome.take, 1)
        else:
            normalizer = self.action_space.batch_sizes[-1]
        self.learner.complete(
            outcome.token,
            batch_reward(accuracy, outcome.take, outcome.overdue, self.beta, normalizer),
        )
