"""The inference service (Section 5).

One serving loop: the admission-controlled front end
(:class:`ServeFrontend` — queueing, rate limits, backpressure, bounded
dispatch retry, accounting; see docs/SERVING.md) asks a
:class:`DispatchPolicy` which queued requests to run on which models at
which batch size. The policies are the paper's: greedy SLO-aware
batching (Algorithm 3, the default), its single/sync/async multi-model
baselines, and the actor-critic controller that jointly selects
the batch size and the ensemble subset. :func:`run_load` drives the
loop on the discrete-event simulator under the sine arrival process of
the evaluation (the Figure 10/13-16 experiments); the asyncio shell
drives it for real queries.
"""

from repro.core.serve.actions import Action, ActionSpace
from repro.core.serve.actor_critic import ActorCritic
from repro.core.serve.arrival import SineArrival, solve_sine_coefficients
from repro.core.serve.batching import DEFAULT_BATCH_SIZES, GreedyBatcher
from repro.core.serve.controllers import (
    GreedyAsyncController,
    GreedySingleController,
    GreedySyncController,
    RLController,
)
from repro.core.serve.ensemble import EnsembleScorer
from repro.core.serve.frontend import (
    AsyncServeFrontend,
    FrontendConfig,
    FrontendRequest,
    ScalingAdvisor,
    ServeFrontend,
    TokenBucket,
)
from repro.core.serve.loadgen import (
    LoadGenConfig,
    LoadTrace,
    ReplicaPool,
    capacity_qps,
    run_load,
    run_multi_load,
)
from repro.core.serve.metrics import DispatchRecord, ServingMetrics, TimelineRow
from repro.core.serve.policy import BatchOutcome, Dispatch, DispatchPolicy, DispatchView, Wait
from repro.core.serve.pred_cache import PredictionCache
from repro.core.serve.profiler import fit_affine_latency, profile_network
from repro.core.serve.reward import batch_reward, mean_exceeding_time
from repro.core.serve.state import StateBuilder

__all__ = [
    "SineArrival",
    "solve_sine_coefficients",
    "GreedyBatcher",
    "DEFAULT_BATCH_SIZES",
    "ActionSpace",
    "Action",
    "ActorCritic",
    "StateBuilder",
    "EnsembleScorer",
    "DispatchPolicy",
    "DispatchView",
    "Dispatch",
    "Wait",
    "BatchOutcome",
    "GreedySingleController",
    "GreedySyncController",
    "GreedyAsyncController",
    "RLController",
    "ServingMetrics",
    "PredictionCache",
    "profile_network",
    "fit_affine_latency",
    "DispatchRecord",
    "TimelineRow",
    "batch_reward",
    "mean_exceeding_time",
    "ServeFrontend",
    "AsyncServeFrontend",
    "FrontendConfig",
    "FrontendRequest",
    "TokenBucket",
    "ScalingAdvisor",
    "LoadGenConfig",
    "LoadTrace",
    "ReplicaPool",
    "run_load",
    "run_multi_load",
    "capacity_qps",
]
