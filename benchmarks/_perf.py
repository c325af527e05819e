"""The one runner behind every ``bench_perf_*.py`` spec.

A spec is a module with three functions::

    run(smoke: bool, seed: int) -> {"simulated": {...}, "wall": {...}}
    check(payload) -> [failure message, ...]     # the spec's gates
    table(payload) -> str                        # the human-readable rows

``simulated`` holds pure functions of the seed (shed curves, kill and
dedup counts, trace fingerprints); ``wall`` holds wall-clock
measurements, which only mean something beside the ``machine`` stamp
the runner adds. The runner executes ``run`` twice with one seed and
fails the spec unless both ``simulated`` sections are identical, then
applies ``check``. One rule for every spec: ``--smoke`` runs every gate
on a small workload and writes nothing; a full run also rewrites the
committed ``BENCH_<name>.json`` and ``benchmarks/results/perf_<name>.txt``.

Usage::

    python benchmarks/bench_perf_<name>.py [--smoke] [--seed N]   # one spec
    python benchmarks/_perf.py [--smoke] [--seed N]               # every spec
"""

from __future__ import annotations

import argparse
import glob
import importlib
import json
import os
import platform
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(_HERE)
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), _HERE) if p not in sys.path]

import numpy as np  # noqa: E402

from repro.chaos.scenarios import same_seed_rerun  # noqa: E402


def machine_stamp() -> dict:
    """What the ``wall`` numbers were measured on."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{sys.platform}-{platform.machine()}",
        "cpu_count": os.cpu_count() or 1,
    }


def time_per_call(fn, repeats: int) -> float:
    """Best-of-3 mean seconds per call over ``repeats`` calls."""
    fn()  # warm caches / allocator
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        best = min(best, (time.perf_counter() - start) / repeats)
    return best


def run_spec(spec, smoke: bool, seed: int) -> list[str]:
    """Run one spec through every gate; returns its failure messages."""
    name = os.path.basename(spec.__file__)[len("bench_perf_"):-len(".py")]
    result, identical = same_seed_rerun(lambda: spec.run(smoke, seed), "simulated")
    payload = {
        "machine": machine_stamp(),
        "simulated": result["simulated"],
        "wall": result["wall"],
    }
    failures = spec.check(payload)
    if not identical:
        failures.insert(0, "simulated section differs across two same-seed runs")
    text = spec.table(payload)
    print(f"\n===== perf_{name} =====\n{text}\n")
    if not smoke:
        with open(os.path.join(ROOT, f"BENCH_{name}.json"), "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        results_dir = os.path.join(ROOT, "benchmarks", "results")
        os.makedirs(results_dir, exist_ok=True)
        with open(os.path.join(results_dir, f"perf_{name}.txt"), "w") as f:
            f.write(text + "\n")
        print(f"BENCH_{name}.json updated")
    for failure in failures:
        print(f"FAIL [{name}]: {failure}", file=sys.stderr)
    return failures


def main(*specs, argv=None) -> int:
    """Run ``specs`` (default: every ``bench_perf_*.py`` here); exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small workload, every gate, nothing written")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if not specs:
        specs = [
            importlib.import_module(os.path.basename(path)[:-len(".py")])
            for path in sorted(glob.glob(os.path.join(_HERE, "bench_perf_*.py")))
        ]
    failed = [spec for spec in specs if run_spec(spec, args.smoke, args.seed)]
    if not failed:
        print("smoke OK" if args.smoke else "OK")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
