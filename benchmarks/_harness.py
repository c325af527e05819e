"""Shared setup for the per-figure benchmark harness.

Each benchmark regenerates one table or figure of the paper's
evaluation (see DESIGN.md's experiment index), prints the rows/series,
and writes them to ``benchmarks/results/<name>.txt`` so the output
survives pytest's capture. Absolute numbers come from the simulated
substrate; the assertions check the paper's *qualitative* claims (who
wins, where, by roughly what factor).
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.serve import (
    DEFAULT_BATCH_SIZES,
    EnsembleScorer,
    FrontendConfig,
    GreedyAsyncController,
    GreedySingleController,
    GreedySyncController,
    LoadGenConfig,
    ReplicaPool,
    RLController,
    ServeFrontend,
    ServingMetrics,
    run_load,
)
from repro.core.tune import (
    BayesianAdvisor,
    CoStudy,
    HyperConf,
    RandomSearchAdvisor,
    StudyMaster,
    SurrogateTrainer,
    make_workers,
    run_study,
    section71_space,
)
from repro.paramserver import ParameterServer
from repro.zoo import get_profile

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Section 7.2 constants.
TAU = 0.56
PERIOD = 500 * TAU
SINGLE_MODEL = "inception_v3"
MULTI_MODELS = ("inception_v3", "inception_v4", "inception_resnet_v2")

_scorer_cache: dict[tuple[str, ...], EnsembleScorer] = {}


def emit(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as f:
        f.write(text + "\n")


def get_scorer(names=MULTI_MODELS) -> EnsembleScorer:
    names = tuple(names)
    if names not in _scorer_cache:
        _scorer_cache[names] = EnsembleScorer(names)
    return _scorer_cache[names]


# ----------------------------------------------------------------------
# tuning studies (Figures 8, 9, 11)
# ----------------------------------------------------------------------


def run_tuning_study(
    advisor: str,
    collaborative: bool,
    max_trials: int = 200,
    num_workers: int = 3,
    seed: int = 1,
    conf_kwargs: dict | None = None,
):
    """One Section 7.1 study on the surrogate trainer."""
    space = section71_space()
    conf = HyperConf(
        max_trials=max_trials, max_epochs_per_trial=50, delta=0.005,
        **(conf_kwargs or {}),
    )
    param_server = ParameterServer()
    advisor_obj = {"random": RandomSearchAdvisor, "bayesian": BayesianAdvisor}[advisor](
        space, rng=np.random.default_rng(seed)
    )
    scheduler = CoStudy(rng=np.random.default_rng(seed + 7)) if collaborative else None
    master = StudyMaster("bench", conf, advisor_obj, param_server, scheduler=scheduler)
    backend = SurrogateTrainer(seed=seed)
    workers = make_workers(master, backend, param_server, conf, num_workers)
    return run_study(master, workers)


def study_summary(report) -> dict:
    performances = np.array([r.performance for r in report.results])
    return {
        "trials": len(performances),
        "best": float(performances.max()),
        "mean": float(performances.mean()),
        "above_50": int((performances > 0.5).sum()),
        "total_epochs": report.total_epochs,
        "wall_hours": report.wall_time / 3600.0,
    }


def format_study_rows(label_reports: list[tuple[str, object]]) -> str:
    lines = [
        f"{'variant':<24} {'best':>7} {'mean':>7} {'>50%':>9} {'epochs':>8} {'wall(h)':>8}"
    ]
    for label, report in label_reports:
        s = study_summary(report)
        lines.append(
            f"{label:<24} {s['best']:>7.4f} {s['mean']:>7.3f} "
            f"{s['above_50']:>4}/{s['trials']:<4} {s['total_epochs']:>8} "
            f"{s['wall_hours']:>8.1f}"
        )
    return "\n".join(lines)


def best_so_far_table(report, points: int = 8) -> str:
    """Best-so-far accuracy vs total epochs (Figure 8c / 9c series)."""
    curve = report.best_so_far_curve()
    if not curve:
        return "(no trials)"
    indices = np.linspace(0, len(curve) - 1, points).astype(int)
    lines = [f"{'epochs':>8} {'best acc':>9}"]
    for i in indices:
        epochs, best = curve[i]
        lines.append(f"{epochs:>8} {best:>9.4f}")
    return "\n".join(lines)


def histogram_table(report, edges=(0.0, 0.25, 0.5, 0.75, 1.0)) -> str:
    """Trial-accuracy histogram (Figure 8b / 9b)."""
    performances = [r.performance for r in report.results]
    counts, _ = np.histogram(performances, bins=edges)
    lines = [f"{'accuracy bin':<16} {'trials':>7}"]
    for low, high, count in zip(edges[:-1], edges[1:], counts):
        lines.append(f"[{low:.2f}, {high:.2f})".ljust(16) + f" {count:>7}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# serving runs (Figures 10, 13, 14, 15, 16)
# ----------------------------------------------------------------------


def single_model_rates() -> tuple[float, float]:
    """(max-throughput r_u, min-throughput r_l) for inception_v3."""
    profile = get_profile(SINGLE_MODEL)
    return (
        max(DEFAULT_BATCH_SIZES) / profile.inference_time(max(DEFAULT_BATCH_SIZES)),
        min(DEFAULT_BATCH_SIZES) / profile.inference_time(min(DEFAULT_BATCH_SIZES)),
    )


def multi_model_rates() -> tuple[float, float]:
    """(572, 128) requests/s for the 3-model set (Section 7.2.2)."""
    profiles = [get_profile(n) for n in MULTI_MODELS]
    b_max, b_min = max(DEFAULT_BATCH_SIZES), min(DEFAULT_BATCH_SIZES)
    return (
        sum(b_max / p.inference_time(b_max) for p in profiles),
        min(b_min / p.inference_time(b_min) for p in profiles),
    )


def make_rl_controller(profiles, seed: int = 0, **reward) -> RLController:
    controller = RLController(profiles, DEFAULT_BATCH_SIZES, TAU, seed=seed,
                              lr=3e-3, gamma=0.0, **reward)
    controller.learner.entropy_min = 0.005
    controller.learner.entropy_decay = 0.9997
    return controller


def run_policy(policy, profiles, target_rate: float, horizon: float, seed: int,
               accuracy) -> ServingMetrics:
    """Serve sine arrivals around ``target_rate`` for ``horizon`` seconds.

    The Section 7.2 environment on the one serving loop: the front end
    with ``policy`` over one simulated model per profile, arrivals in
    0.1 s steps, a 5000-deep queue and no deadline shedding (a delayed
    response beats a time-out); per-batch records only.
    """
    latencies = [p.inference_time for p in profiles]
    config = FrontendConfig(
        latency=latencies[0], tau=TAU, batch_sizes=DEFAULT_BATCH_SIZES,
        max_queue=5000, deadline_slack=float("inf"),
    )
    load = LoadGenConfig(mode="open", target_rate=target_rate, period=PERIOD,
                         duration=horizon, span=0.1, seed=seed, clients=1)
    return run_load(
        ServeFrontend(config, policy=policy), ReplicaPool(latencies), load,
        trace=ServingMetrics(tau=TAU, accuracy=accuracy),
    )


def run_serving(
    controller_kind: str,
    target_rate: float,
    horizon: float,
    models=MULTI_MODELS,
    seed: int = 0,
    beta: float = 1.0,
    shaping_beta: float = 4.0,
):
    """One serving run; returns (metrics, measurement window start)."""
    profiles = [get_profile(n) for n in models]
    if len(profiles) > 1:
        scorer = get_scorer(models)
        accuracy = scorer.accuracy
    else:
        scorer = None
        accuracy = lambda subset: profiles[0].top1_accuracy  # noqa: E731
    if controller_kind == "greedy-single":
        controller = GreedySingleController(profiles[0], DEFAULT_BATCH_SIZES, TAU)
    elif controller_kind == "greedy-sync":
        controller = GreedySyncController(profiles, DEFAULT_BATCH_SIZES, TAU)
    elif controller_kind == "greedy-async":
        controller = GreedyAsyncController(profiles, DEFAULT_BATCH_SIZES, TAU)
    elif controller_kind == "rl":
        # Single-model serving has no ensemble-accuracy signal: Equation
        # 7's batch scaling (throughput incentive) is the right learner
        # reward. Multi-model serving uses per-request scaling so the
        # ensemble accuracy differences stay visible across arrival
        # phases.
        if len(profiles) == 1:
            reward = dict(reward_shaping="batch", beta=beta)
        else:
            reward = dict(reward_shaping="per_request", beta=shaping_beta)
        controller = make_rl_controller(profiles, seed=seed, scorer=scorer, **reward)
    else:
        raise ValueError(controller_kind)
    metrics = run_policy(controller, profiles, target_rate, horizon, seed, accuracy)
    # Measure over the last 4 *whole* arrival cycles so that different
    # horizons sample identical sine phases.
    window = horizon - 4 * PERIOD if horizon > 5 * PERIOD else horizon * 0.8
    return metrics, window


def serving_timeline_table(metrics, window: float, cycles_buckets: int = 8) -> str:
    rows = metrics.timeline(bucket=PERIOD / cycles_buckets, start=window)
    lines = [f"{'t(s)':>8} {'arrive/s':>9} {'served/s':>9} {'overdue/s':>10} "
             f"{'accuracy':>9} {'models':>7}"]
    for row in rows[:cycles_buckets]:
        lines.append(
            f"{row.time:>8.0f} {row.arrival_rate:>9.0f} {row.serve_rate:>9.0f} "
            f"{row.overdue_rate:>10.0f} {row.accuracy:>9.4f} {row.mean_models:>7.2f}"
        )
    return "\n".join(lines)


def serving_summary_line(label: str, metrics, window: float) -> str:
    p95 = metrics.latency_quantile(0.95) if len(metrics.latencies) else float("nan")
    return (
        f"{label:<16} accuracy={metrics.mean_accuracy(window):.4f} "
        f"overdue={100 * metrics.overdue_fraction(window):.2f}% "
        f"exceed={1000 * metrics.mean_exceeding_time(window):.1f}ms "
        f"p95={1000 * p95:.0f}ms served={metrics.total_served}"
    )
