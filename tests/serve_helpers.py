"""Builders the serving tests share: queues, policy views, short runs."""

from __future__ import annotations

from repro.core.serve import (
    DEFAULT_BATCH_SIZES,
    DispatchView,
    FrontendConfig,
    FrontendRequest,
    LoadGenConfig,
    ReplicaPool,
    ServeFrontend,
    ServingMetrics,
    run_load,
)
from repro.core.serve.frontend import PendingQueue

TAU = 0.56


def deploy_untrained(system, dataset, replicas=1) -> str:
    """Deploy ``replicas`` copies of one freshly initialised zoo model on
    ``system`` (no training: parameters pushed by hand); the job id."""
    import numpy as np

    from repro.core.system import ModelSpec

    system.import_images(dataset)
    entry = system.registry.select_diverse("ImageClassification", k=1)[0]
    network = entry.builder(
        dataset.image_shape, dataset.num_classes, np.random.default_rng(0)
    )
    system.param_server.put("untrained", network.state_dict())
    spec = ModelSpec(entry.name, "untrained", 0.5, "ImageClassification", dataset.name)
    return system.create_inference_job([spec] * replicas)


def queue_of(arrivals) -> PendingQueue:
    """A queue holding one request per arrival time, in the given order."""
    queue = PendingQueue()
    for seq, arrival in enumerate(arrivals, start=1):
        queue.append(FrontendRequest(seq, "c", None, arrival, arrival + TAU))
    return queue


def view_of(arrivals, now, busy_until=()) -> DispatchView:
    """What a policy sees: these queued arrivals, at ``now``."""
    return DispatchView(queue_of(arrivals), now, busy_until)


def serve(policy, profiles, target, horizon, seed=0, period=200.0,
          accuracy=lambda models: 0.0, trace=None, **config):
    """Run ``policy`` over one simulated model per profile, Section 7.2 style.

    Sine arrivals around ``target`` in 0.1 s steps, a 5000-deep queue
    and no deadline shedding unless ``config`` says otherwise. Returns
    ``(metrics, frontend)``; ``metrics`` is per-batch
    :class:`ServingMetrics` unless another ``trace`` is passed.
    """
    latencies = [p.inference_time for p in profiles]
    settings = dict(latency=latencies[0], tau=TAU, batch_sizes=DEFAULT_BATCH_SIZES,
                    max_queue=5000, deadline_slack=float("inf"))
    settings.update(config)
    frontend = ServeFrontend(FrontendConfig(**settings), policy=policy)
    load = LoadGenConfig(target_rate=target, period=period, duration=horizon,
                         span=0.1, seed=seed, clients=1)
    if trace is None:
        trace = ServingMetrics(tau=TAU, accuracy=accuracy)
    return run_load(frontend, ReplicaPool(latencies), load, trace=trace), frontend
