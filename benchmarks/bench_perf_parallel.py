"""Multi-core trial execution: pool vs sequential.

Runs one real-training study (RealTrainer over a synthetic image
dataset; 512 img/class, 8 trials x 6 epochs, so epochs and not start-up
are what is timed) sequentially, then with trials farmed out to 2/4
child processes of a persistent worker pool (one pipe per worker,
workers reused across trials and studies); ``processes=1`` is timed too
and runs in-process, so it should read as the sequential figure.  The
process's very first pool study is timed as the ``cold`` row, before
anything else has run or forked; a reused pool is also timed cold vs
warm, since amortising worker start-up across studies is the pool's
core win.  Records real wall-clock and the bytes the pipes carried in
each direction, and checks the hard invariant: every pool run
reproduces the sequential study report bit-for-bit (best accuracy,
epoch counts, simulated wall time).

Speedup is hardware-dependent, so next to the timings
``BENCH_perf.json`` records ``cpu_count``, per-configuration
``effective_parallelism`` (processes actually backed by a core) and an
``oversubscribed`` flag — on a single-core box the parallel runs only
add IPC overhead and must not be misread as regressions.  The
determinism assertions are the portable part.

Standalone usage (CI smoke gate)::

    PYTHONPATH=src python benchmarks/bench_perf_parallel.py --smoke

exits non-zero if any pool run diverges from the sequential report; the
warm-pool-vs-sequential speedup is printed as an informational metric
(shared CI runners are too noisy to gate on wall-clock).  Add
``--perf-gate`` on a dedicated multi-core box to also fail when the
warm pool study is slower than sequential.
"""

import argparse
import os
import platform
import sys
import time

if __name__ == "__main__":  # standalone: make repro + _harness importable
    _HERE = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
    sys.path.insert(0, _HERE)

import numpy as np

from repro import telemetry
from repro.core.tune import (
    HyperConf,
    HyperSpace,
    RandomSearchAdvisor,
    RealTrainer,
    StudyMaster,
    TrialPool,
    make_workers,
    run_study,
    run_study_parallel,
)
from repro.core.tune.trial import rewind_trial_ids
from repro.data import make_image_classification
from repro.paramserver import ParameterServer
from repro.zoo.builders import build_mlp

TRIALS = 8
MAX_EPOCHS = 6
TRAIN_PER_CLASS = 512
WORKERS = 4
SEED = 9
PROCESS_COUNTS = (1, 2, 4)


def make_dataset(train_per_class: int = TRAIN_PER_CLASS):
    return make_image_classification(
        name="bench", num_classes=3, image_shape=(3, 8, 8),
        train_per_class=train_per_class, val_per_class=8, test_per_class=8,
        difficulty=0.3, seed=SEED,
    )


def make_study(dataset, trials: int = TRIALS, max_epochs: int = MAX_EPOCHS):
    rewind_trial_ids()  # identical ids per run
    space = HyperSpace()
    space.add_range_knob("lr", "float", 0.01, 0.3, log_scale=True)
    space.add_range_knob("momentum", "float", 0.0, 0.9)
    conf = HyperConf(max_trials=trials, max_epochs_per_trial=max_epochs, delta=0.005)
    param_server = ParameterServer()
    advisor = RandomSearchAdvisor(space, rng=np.random.default_rng(SEED))
    master = StudyMaster("bench-parallel", conf, advisor, param_server)
    backend = RealTrainer(dataset, build_mlp, batch_size=16,
                          use_augmentation=False, seed=SEED)
    workers = make_workers(master, backend, param_server, conf, WORKERS)
    return master, workers


def fingerprint(report) -> tuple:
    return (
        report.best_performance,
        report.total_epochs,
        report.wall_time,
        tuple((e.index, e.performance, e.epochs) for e in report.history),
    )


def ipc_counter_snapshot() -> dict:
    counter = telemetry.get_registry().counter("repro_tune_pool_ipc_bytes_total")
    return {
        direction: counter.value(direction=direction)
        for direction in ("to_worker", "from_worker")
    }


def run_matrix(process_counts=PROCESS_COUNTS, trials=TRIALS,
               max_epochs=MAX_EPOCHS, train_per_class=TRAIN_PER_CLASS) -> dict:
    """Time every configuration; returns the BENCH_perf.json payload."""
    dataset = make_dataset(train_per_class)
    cpu_count = os.cpu_count() or 1

    # Nothing is paid for ahead of this one: the process has not forked,
    # built a trainer or run an epoch yet.
    master, workers = make_study(dataset, trials, max_epochs)
    start = time.perf_counter()
    cold = run_study_parallel(master, workers, processes=2)
    cold_s = time.perf_counter() - start

    master, workers = make_study(dataset, trials, max_epochs)
    start = time.perf_counter()
    sequential = run_study(master, workers)
    sequential_s = time.perf_counter() - start
    seq_print = fingerprint(sequential)

    payload = {
        "machine": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": f"{sys.platform}-{platform.machine()}",
        },
        "cpu_count": cpu_count,
        "trials": trials,
        "max_epochs": max_epochs,
        "train_per_class": train_per_class,
        "workers": WORKERS,
        "sequential_s": sequential_s,
        "cold_s": cold_s,  # this process's first pool (2 processes)
        "parallel_s": {},  # a fresh pool per study
        "pool_reuse_s": {},
        "effective_parallelism": {
            str(p): min(p, cpu_count) for p in process_counts
        },
        "oversubscribed": any(p > cpu_count for p in process_counts),
        "deterministic": fingerprint(cold) == seq_print,
    }
    table = {
        "pool_2_cold": (cold_s, payload["deterministic"]),
        "sequential": (sequential_s, True),
    }

    ipc_before = ipc_counter_snapshot()
    for processes in process_counts:
        master, workers = make_study(dataset, trials, max_epochs)
        start = time.perf_counter()
        report = run_study_parallel(master, workers, processes=processes)
        seconds = time.perf_counter() - start
        identical = fingerprint(report) == seq_print
        payload["parallel_s"][str(processes)] = seconds
        payload["deterministic"] &= identical
        table[f"pool_{processes}"] = (seconds, identical)
    ipc_after = ipc_counter_snapshot()
    payload["ipc_bytes"] = {
        direction: int(ipc_after[direction] - ipc_before[direction])
        for direction in ipc_after
    }

    # Pool reuse: the second study on a live pool skips fork + dataset
    # shipping + trainer rebuild — the steady-state cost of a study.
    reuse_processes = min(max(process_counts), max(2, cpu_count))
    with TrialPool(processes=reuse_processes) as pool:
        for label in ("cold", "warm"):
            master, workers = make_study(dataset, trials, max_epochs)
            start = time.perf_counter()
            report = run_study_parallel(master, workers, pool=pool)
            seconds = time.perf_counter() - start
            identical = fingerprint(report) == seq_print
            payload["pool_reuse_s"][label] = seconds
            payload["deterministic"] &= identical
            table[f"pool_reuse_{label}"] = (seconds, identical)

    payload["_table"] = table
    return payload


def format_table(payload: dict) -> str:
    sequential_s = payload["sequential_s"]
    lines = [f"{'configuration':<20} {'wall(s)':>8} {'speedup':>8} {'identical':>10}"]
    for label, (seconds, identical) in payload["_table"].items():
        lines.append(
            f"{label:<20} {seconds:>8.3f} {sequential_s / seconds:>7.2f}x "
            f"{'yes' if identical else 'NO':>10}"
        )
    lines.append(
        f"(cpu cores: {payload['cpu_count']}, oversubscribed: "
        f"{payload['oversubscribed']}, pipe bytes to workers: "
        f"{payload['ipc_bytes']['to_worker']}, from workers: "
        f"{payload['ipc_bytes']['from_worker']})"
    )
    return "\n".join(lines)


def test_perf_parallel(benchmark):
    from _harness import emit
    from bench_perf_engine import update_bench_json

    payload = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    emit("perf_parallel", format_table(payload))
    table = payload.pop("_table")
    update_bench_json("parallel", payload)

    # The portable acceptance bar: parallel == sequential, always.
    # (Wall-clock wins need >=2 cores; the --smoke entry point below
    # asserts them on the multi-core CI runner.)
    assert payload["deterministic"]
    assert all(identical for _, identical in table.values())
    assert min(payload["ipc_bytes"].values()) > 0  # both ways, one pipe


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast determinism gate; skips the BENCH_perf.json rewrite "
             "and reports the warm-pool-vs-sequential speedup as an "
             "informational metric",
    )
    parser.add_argument(
        "--perf-gate", action="store_true",
        help="with --smoke: also fail if warm pool-mode wall-clock "
             "exceeds sequential (needs >=2 cores; meant for dedicated "
             "machines, not noisy shared CI runners)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        cpu_count = os.cpu_count() or 1
        processes = (min(2, cpu_count),) if cpu_count < 4 else (2, 4)
        payload = run_matrix(process_counts=processes, trials=6, max_epochs=4,
                             train_per_class=64)
    else:
        payload = run_matrix()
    print(format_table(payload))
    payload.pop("_table")

    if not payload["deterministic"]:
        print("FAIL: a pool run diverged from the sequential report",
              file=sys.stderr)
        return 1
    if args.smoke:
        warm = payload["pool_reuse_s"]["warm"]
        speedup = payload["sequential_s"] / warm
        if payload["cpu_count"] >= 2 and warm > payload["sequential_s"]:
            message = (
                f"warm pool study ({warm:.3f}s) slower than sequential "
                f"({payload['sequential_s']:.3f}s) on "
                f"{payload['cpu_count']} cores"
            )
            if args.perf_gate:
                print(f"FAIL: {message}", file=sys.stderr)
                return 1
            print(f"WARN: {message} (informational; not gated)")
        else:
            print(f"warm pool speedup vs sequential: {speedup:.2f}x "
                  f"on {payload['cpu_count']} cores (informational)")
        print("smoke OK")
        return 0

    from bench_perf_engine import update_bench_json

    update_bench_json("parallel", payload)
    print("BENCH_perf.json updated")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
