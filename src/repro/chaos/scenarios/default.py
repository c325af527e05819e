"""The default scenario: one fault plan across tune, serve and the facade.

1. **tune over the cluster** — a distributed surrogate study survives
   two mid-study node failures, per-epoch trial crashes
   (``tune.trial``) restarted from checkpoints, and parameter-server
   pushes dropped with probability 0.1 behind a retry policy;
2. **serve** — the front end re-queues batches whose dispatch fails
   (``frontend.dispatch`` exceptions) and absorbs injected latency, with
   SLO accounting intact;
3. **the facade + gateway** — real models are trained and deployed,
   one replica is made to fail repeatedly (``serve.model.<name>``)
   until its circuit breaker drops it from the ensemble, the breaker
   re-admits it after the recovery window (on the injectable manual
   clock), and gateway requests absorb injected 503/504 failures.
"""

from __future__ import annotations

from typing import Any

from repro import telemetry
from repro.chaos.faults import FaultKind, FaultPlan, FaultRule
from repro.chaos.scenarios._core import (
    _cluster,
    _failures,
    _push_retry,
    _sandbox,
    _surrogate_study,
    _trace_counters,
)
from repro.utils.retry import RetryPolicy


def build_default_plan(seed: int, flaky_model: str) -> FaultPlan:
    """The scenario's fault schedule: three kinds across four subsystems."""
    rules = [
        # tune: occasional per-epoch trial crashes, capped so the study
        # always terminates; workers restart from checkpoints.
        FaultRule("tune.trial", FaultKind.EXCEPTION, probability=0.02, max_faults=4),
        # paramserver: every push is dropped with p = 0.1; the server's
        # retry policy re-sends until it lands.
        FaultRule("paramserver.push", FaultKind.DROP, probability=0.1),
        # serve: dispatches gain latency sometimes and fail outright a
        # few times; the front end re-queues the in-flight requests.
        FaultRule("frontend.dispatch", FaultKind.LATENCY, probability=0.2, latency=0.02),
        FaultRule("frontend.dispatch", FaultKind.EXCEPTION, probability=0.05, max_faults=6),
        # one replica fails three times in a row, opening its breaker.
        FaultRule(f"serve.model.{flaky_model}", FaultKind.EXCEPTION, max_faults=3),
        # gateway: one backend crash (503) and one lost response (504).
        FaultRule("gateway.dispatch", FaultKind.EXCEPTION, after=2, max_faults=1),
        FaultRule("gateway.dispatch", FaultKind.DROP, after=4, max_faults=1),
    ]
    return FaultPlan(rules, seed=seed)


def run(seed: int = 0) -> dict[str, Any]:
    """Run the full chaos scenario; return results plus the recovery trace."""
    from repro.zoo import default_registry

    flaky_model = default_registry().select_diverse("ImageClassification", k=2)[0].name
    plan = build_default_plan(seed, flaky_model)
    with _sandbox(plan) as (registry, clock):
        results = {
            "tune": _tune_phase(seed),
            "serve": _serve_phase(seed),
            "facade": _facade_phase(seed, clock, flaky_model),
        }
        trace = {
            "faults": plan.trace(),
            "counters": _trace_counters(registry),
        }
        return {
            "seed": seed,
            "flaky_model": flaky_model,
            "results": results,
            "points_hit": plan.points_hit(),
            "kinds_hit": plan.kinds_hit(),
            "faults_injected": plan.faults_injected(),
            "trace": trace,
        }


def check(out: dict[str, Any]) -> list[str]:
    """Every request answered, and the flapped replica back in the vote."""
    serve, facade = out["results"]["serve"], out["results"]["facade"]
    return _failures({
        "serve requests dropped": serve["arrived"] - serve["served"],
        f"facade breaker of {out['flaky_model']} after the recovery window":
            facade["breaker_state"] != "closed" and facade["breaker_state"],
    })


def table(out: dict[str, Any]) -> str:
    tune, serve, facade = (out["results"][k] for k in ("tune", "serve", "facade"))
    return "\n".join([
        f"chaos scenario (seed {out['seed']}): {out['faults_injected']} faults injected",
        f"  kinds:  {', '.join(out['kinds_hit'])}",
        f"  points: {', '.join(out['points_hit'])}",
        f"tune:   {tune['trials']} trials, best {tune['best_performance']:.4f} "
        f"(trial {tune['best_trial_id']}), {tune['recoveries']} container "
        f"recoveries, {tune['wall_time'] / 3600:.1f} simulated hours",
        f"serve:  {serve['served']} served, {serve['requeued']} batches re-queued "
        f"after failed dispatch, {serve['dropped']} dropped, "
        f"SLO fraction {serve['slo_fraction']:.3f}",
        f"facade: statuses {facade['statuses']}; replicas live "
        f"{facade['live_during_outage']} during outage, "
        f"{facade['live_after_recovery']} after recovery "
        f"(breaker {facade['breaker_state']})",
    ])


def _tune_phase(seed: int) -> dict[str, Any]:
    """Distributed study under node failures, trial crashes, dropped pushes."""
    from repro.paramserver import ParameterServer

    manager = _cluster()
    report = _surrogate_study(
        "chaos", seed, manager, ParameterServer(retry=_push_retry(seed)),
        failure_plan=[(150.0, "n0", 900.0), (400.0, "n1", None)],
    )
    best = report.best
    reissued = telemetry.get_registry().counter(
        "repro_tune_trials_reissued_total",
        "In-flight trials re-issued to replacement workers.",
    )
    return {
        "trials": len(report.results),
        "total_epochs": report.total_epochs,
        "best_performance": report.best_performance,
        "best_trial_id": best.trial.trial_id if best is not None else None,
        "recoveries": manager.recoveries,
        "reissued": int(sum(reissued.snapshot().values())),
        "wall_time": report.wall_time,
    }


def _serve_phase(seed: int) -> dict[str, Any]:
    """Serving run with failed/slowed dispatches and batch resubmission."""
    from repro.core.serve import (
        FrontendConfig,
        GreedySingleController,
        LoadGenConfig,
        ReplicaPool,
        ServeFrontend,
        run_load,
    )
    from repro.zoo import get_profile

    profile = get_profile("inception_v3")
    config = FrontendConfig(
        latency=profile.inference_time,
        dispatch_retry=RetryPolicy(
            max_attempts=4, base_delay=0.005, max_delay=0.1, jitter=0.0, seed=seed
        ),
    )
    policy = GreedySingleController(profile, config.batch_sizes, config.tau)
    summary = run_load(
        ServeFrontend(config, policy=policy),
        ReplicaPool(profile.inference_time),
        LoadGenConfig(target_rate=80.0, duration=30.0, span=0.1, seed=seed),
    ).summary()
    retried = telemetry.get_registry().counter(
        "repro_serve_frontend_dispatch_retries_total"
    )
    return {
        "arrived": summary["offered"],
        "served": summary["served"],
        "dropped": summary["shed"],
        "requeued": int(retried.value()),
        "slo_fraction": 1.0 - summary["slo_miss_rate"],
    }


def _facade_phase(seed: int, clock, flaky_model: str) -> dict[str, Any]:
    """Train/deploy real models; flap one replica; hit the gateway.

    The flaky replica's circuit breaker opens after three consecutive
    injected failures (dropping it from the ensemble vote) and, once the
    manual clock advances past the recovery window, re-admits it on a
    successful half-open probe.
    """
    from repro.api.gateway import Gateway
    from repro.core.system import Rafiki
    from repro.core.tune import HyperConf
    from repro.data import make_image_classification

    dataset = make_image_classification(
        name="chaos-ds", num_classes=3, image_shape=(3, 8, 8),
        train_per_class=12, val_per_class=6, test_per_class=6,
        difficulty=0.3, seed=seed,
    )
    system = Rafiki(seed=seed)
    # The facade's parameter server must survive the dropped-push rule.
    system.param_server.retry = _push_retry(seed)
    system.import_images(dataset)
    job_id = system.create_train_job(
        "chaos", "ImageClassification", "chaos-ds",
        hyper=HyperConf(max_trials=2, max_epochs_per_trial=3),
        num_workers=2,
    )
    specs = system.get_models(job_id)
    infer_id = system.create_inference_job(specs)
    info = system.get_inference_job(infer_id)
    gateway = Gateway(system)

    statuses: list[int] = []
    for i in range(6):
        response = gateway.handle(
            "POST", f"/query/{infer_id}", {"img": dataset.test_x[i].tolist()}
        )
        statuses.append(response.status)
    live_during_outage = len(info.live_replicas())
    flaky_breaker = next(
        (b for b in info.breakers if b.name.endswith(f"/{flaky_model}")), None
    )
    # Let the breaker's recovery window elapse, then probe it closed.
    clock.advance(31.0)
    for i in range(2):
        response = gateway.handle(
            "POST", f"/query/{infer_id}", {"img": dataset.test_x[6 + i].tolist()}
        )
        statuses.append(response.status)
    return {
        "models": [spec.model_name for spec in specs],
        "statuses": statuses,
        "live_during_outage": live_during_outage,
        "live_after_recovery": len(info.live_replicas()),
        "breaker_opened": flaky_breaker.opened_count if flaky_breaker else 0,
        "breaker_state": flaky_breaker.state if flaky_breaker else "missing",
    }
