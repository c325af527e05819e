"""Multi-core trial execution: pool vs sequential.

Runs one real-training study (RealTrainer over a synthetic image
dataset; 512 img/class, 8 trials x 6 epochs, so epochs and not start-up
are what is timed) sequentially, then with trials farmed out to 2/4
child processes of a persistent worker pool (one pipe per worker,
workers reused across trials and studies); ``processes=1`` is timed too
and runs in-process, so it should read as the sequential figure. The
first pool study of a run is timed as the ``cold`` row, before the
sequential one; a reused pool is also timed cold vs warm, since
amortising worker start-up across studies is the pool's core win.

``simulated`` is the hard invariant: every pool run reproduces the
sequential study report bit-for-bit (best accuracy, epoch counts,
simulated wall time) — gated. ``wall`` is the seconds per configuration
and the bytes the pipes carried; speedup is hardware-dependent, so
``effective_parallelism`` (processes actually backed by a core) and an
``oversubscribed`` flag ride along — on a single-core box the parallel
runs only add IPC overhead and must not be misread as regressions.

``propose`` is the per-trial cost of the Bayesian advisor (what the
surrogate studies of ``tune_costudy`` spend most of their time in): one
``BayesianAdvisor.propose`` over n = 40 and 150 observations of section
7.1's five knobs, 500 candidates. Its legacy column is the advisor with
the GP it had before: the broadcast (m, n, d) kernel, the ``scipy.stats``
EI and the two-solve (``cho_solve``) posterior variance, embedded below
(the advisor's own bookkeeping is today's in both columns); both columns
must propose the same candidates (gated; the timings are not).

Run through the shared runner (see ``_perf.py``)::

    python benchmarks/bench_perf_parallel.py [--smoke] [--seed N]
"""

import contextlib
import hashlib
import os
import sys
import time

import _perf
import numpy as np
from _perf import time_per_call
from scipy.linalg import cho_solve
from scipy.stats import norm

from repro import telemetry
from repro.core.tune import (
    BayesianAdvisor,
    HyperConf,
    HyperSpace,
    RandomSearchAdvisor,
    RealTrainer,
    StudyMaster,
    Trial,
    TrialPool,
    TrialResult,
    make_workers,
    run_study,
    run_study_parallel,
    section71_space,
)
from repro.core.tune.advisors import bayesian as bayesian_module
from repro.core.tune.advisors import gp as gp_module
from repro.data import make_image_classification
from repro.paramserver import ParameterServer
from repro.zoo.builders import build_mlp

WORKERS = 4
#: study seed of ``--seed 0``.
BASE_SEED = 9
#: observations the timed ``propose`` fits its GP on, and the candidate
#: pool it scores (the advisor's default).
PROPOSE_OBSERVATIONS, PROPOSE_CANDIDATES = (40, 150), 500
#: proposals both advisors make before their candidates are compared.
PROPOSE_COMPARED = 5


# The GP kernel, EI and posterior before the kernel went one coordinate
# at a time and the variance took one triangular solve: ``propose``'s
# legacy column.


def legacy_rbf(a, b, length_scale, signal_var):
    sq_dist = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return signal_var * np.exp(-0.5 * sq_dist / length_scale**2)


def legacy_expected_improvement(mean, std, best, xi=0.01):
    improvement = mean - best - xi
    z = improvement / std
    return improvement * norm.cdf(z) + std * norm.pdf(z)


def legacy_predict(gp, x_new):
    x_new = np.atleast_2d(np.asarray(x_new, dtype=np.float64))
    k_star = legacy_rbf(x_new, gp._x, gp.length_scale, gp.signal_var)
    mean = k_star @ gp._alpha
    v = cho_solve(gp._cho, k_star.T)
    var = np.maximum(gp.signal_var - np.einsum("ij,ji->i", k_star, v), 1e-12)
    return mean * gp._y_std + gp._y_mean, np.sqrt(var) * gp._y_std


@contextlib.contextmanager
def legacy_advisor():
    """Run ``BayesianAdvisor`` on the legacy kernel, EI and posterior."""
    gp_class = gp_module.GaussianProcess
    shipped = gp_module._rbf, bayesian_module.expected_improvement, gp_class.predict
    gp_module._rbf = legacy_rbf
    bayesian_module.expected_improvement = legacy_expected_improvement
    gp_class.predict = legacy_predict
    try:
        yield
    finally:
        gp_module._rbf, bayesian_module.expected_improvement, gp_class.predict = shipped


def observed_advisor(observations: int, seed: int) -> BayesianAdvisor:
    """An advisor that has collected ``observations`` seeded results.

    Without the constant liar nothing pending joins the fit, so every
    timed ``propose`` fits the same ``observations`` points.
    """
    space = section71_space()
    advisor = BayesianAdvisor(space, rng=np.random.default_rng(seed),
                              candidates=PROPOSE_CANDIDATES, constant_liar=False)
    rng = np.random.default_rng(seed + 1)
    for _ in range(observations):
        params = space.sample(rng)
        performance = -float(np.sum((space.encode(params) - 0.6) ** 2))
        advisor.collect(TrialResult(trial=Trial(params=params), performance=performance,
                                    epochs=1, worker="w"))
    return advisor


def propose(seed: int, repeats: int) -> tuple[dict, bool]:
    """Seconds per ``propose`` at each size, and whether the legacy and
    shipped advisors propose the same candidates."""
    timings, same = {}, True
    for observations in PROPOSE_OBSERVATIONS:
        fast, legacy = (observed_advisor(observations, seed) for _ in range(2))
        with legacy_advisor():
            legacy_picks = [legacy.propose("w") for _ in range(PROPOSE_COMPARED)]
            legacy_s = time_per_call(lambda: legacy.propose("w"), repeats)
        same &= legacy_picks == [fast.propose("w") for _ in range(PROPOSE_COMPARED)]
        fast_s = time_per_call(lambda: fast.propose("w"), repeats)
        timings[f"n{observations}"] = {
            "legacy_s": legacy_s, "fast_s": fast_s, "speedup": legacy_s / fast_s,
        }
    return timings, same


def make_study(dataset, trials: int, max_epochs: int, seed: int):
    space = HyperSpace()
    space.add_range_knob("lr", "float", 0.01, 0.3, log_scale=True)
    space.add_range_knob("momentum", "float", 0.0, 0.9)
    conf = HyperConf(max_trials=trials, max_epochs_per_trial=max_epochs, delta=0.005)
    param_server = ParameterServer()
    advisor = RandomSearchAdvisor(space, rng=np.random.default_rng(seed))
    master = StudyMaster("bench-parallel", conf, advisor, param_server)
    backend = RealTrainer(dataset, build_mlp, batch_size=16,
                          use_augmentation=False, seed=seed)
    workers = make_workers(master, backend, param_server, conf, WORKERS)
    return master, workers


def fingerprint(report) -> dict:
    history = tuple((e.index, e.performance, e.epochs) for e in report.history)
    return {
        "best_performance": report.best_performance,
        "total_epochs": report.total_epochs,
        "simulated_wall_time": report.wall_time,
        "history_sha256": hashlib.sha256(repr(history).encode()).hexdigest(),
    }


def ipc_counter_snapshot() -> dict:
    counter = telemetry.get_registry().counter("repro_tune_pool_ipc_bytes_total")
    return {
        direction: counter.value(direction=direction)
        for direction in ("to_worker", "from_worker")
    }


def run(smoke: bool, seed: int) -> dict:
    """Time every configuration against the sequential study."""
    cpu_count = os.cpu_count() or 1
    if smoke:
        process_counts = (min(2, cpu_count),) if cpu_count < 4 else (2, 4)
        trials, max_epochs, train_per_class = 6, 4, 64
    else:
        process_counts = (1, 2, 4)
        trials, max_epochs, train_per_class = 8, 6, 512
    seed = BASE_SEED + seed
    dataset = make_image_classification(
        name="bench", num_classes=3, image_shape=(3, 8, 8),
        train_per_class=train_per_class, val_per_class=8, test_per_class=8,
        difficulty=0.3, seed=seed,
    )
    seconds: dict[str, float] = {}
    reports = {}

    def timed(label: str, **how) -> None:
        master, workers = make_study(dataset, trials, max_epochs, seed)
        start = time.perf_counter()
        reports[label] = (
            run_study_parallel(master, workers, **how) if how
            else run_study(master, workers)
        )
        seconds[label] = time.perf_counter() - start

    propose_timings, propose_same = propose(seed, repeats=3 if smoke else 30)
    ipc_before = ipc_counter_snapshot()
    timed("pool_2_cold", processes=2)
    timed("sequential")
    for processes in process_counts:
        timed(f"pool_{processes}", processes=processes)  # a fresh pool per study
    # Pool reuse: the second study on a live pool skips fork + dataset
    # shipping + trainer rebuild — the steady-state cost of a study.
    with TrialPool(processes=min(max(process_counts), max(2, cpu_count))) as pool:
        for label in ("cold", "warm"):
            timed(f"pool_reuse_{label}", pool=pool)
    ipc_after = ipc_counter_snapshot()

    sequential = fingerprint(reports["sequential"])
    return {
        "simulated": {
            "trials": trials,
            "max_epochs": max_epochs,
            "train_per_class": train_per_class,
            "workers": WORKERS,
            "seed": seed,
            "sequential": sequential,
            "identical_to_sequential": {
                label: fingerprint(report) == sequential
                for label, report in reports.items()
            },
            "propose": {
                "observations": list(PROPOSE_OBSERVATIONS),
                "dimensions": section71_space().dimensions,
                "candidates": PROPOSE_CANDIDATES,
                "same_candidates": propose_same,
            },
        },
        "wall": {
            "propose": propose_timings,
            "seconds": seconds,
            "effective_parallelism": {
                str(p): min(p, cpu_count) for p in process_counts
            },
            "oversubscribed": any(p > cpu_count for p in process_counts),
            "ipc_bytes": {
                direction: int(ipc_after[direction] - ipc_before[direction])
                for direction in ipc_after
            },
        },
    }


def table(payload: dict) -> str:
    sim, wall = payload["simulated"], payload["wall"]
    sequential_s = wall["seconds"]["sequential"]
    lines = [f"{'configuration':<20} {'wall(s)':>8} {'speedup':>8} {'identical':>10}"]
    for label, seconds in wall["seconds"].items():
        identical = sim["identical_to_sequential"][label]
        lines.append(
            f"{label:<20} {seconds:>8.3f} {sequential_s / seconds:>7.2f}x "
            f"{'yes' if identical else 'NO':>10}"
        )
    lines.append(
        f"(cpu cores: {payload['machine']['cpu_count']}, oversubscribed: "
        f"{wall['oversubscribed']}, pipe bytes to workers: "
        f"{wall['ipc_bytes']['to_worker']}, from workers: "
        f"{wall['ipc_bytes']['from_worker']}; speedups are informational)"
    )
    shape = sim["propose"]
    title = f"propose d={shape['dimensions']} m={shape['candidates']}"
    lines.append(f"\n{title:<24} {'legacy(ms)':>11} {'fast(ms)':>9} {'speedup':>8}")
    for label, entry in wall["propose"].items():
        lines.append(
            f"{label:<24} {1e3 * entry['legacy_s']:>11.3f} "
            f"{1e3 * entry['fast_s']:>9.3f} {entry['speedup']:>7.1f}x"
        )
    return "\n".join(lines)


def check(payload: dict) -> list[str]:
    """The portable acceptance bar: parallel == sequential, always, and
    the advisor's kernel changes no proposal."""
    failures = [
        f"{label} diverged from the sequential report"
        for label, identical
        in payload["simulated"]["identical_to_sequential"].items()
        if not identical
    ]
    if min(payload["wall"]["ipc_bytes"].values()) <= 0:
        failures.append("the pool's pipes carried no bytes in one direction")
    if not payload["simulated"]["propose"]["same_candidates"]:
        failures.append("propose: the legacy and shipped advisors proposed different candidates")
    return failures


if __name__ == "__main__":
    raise SystemExit(_perf.main(sys.modules[__name__]))
