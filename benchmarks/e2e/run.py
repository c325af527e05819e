"""End-to-end + per-layer benchmark: one workload, one process, one command.

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

``--trace 0`` makes three passes, each setting the system up afresh,
running a third of the workload's primary and alt work untraced and
checking the outputs against the workload's oracles, and prints the five
end-to-end metrics (``setup_s`` is the median set-up). ``--trace 1``
makes one pass untraced and one with span wrappers installed from this
directory's files, half the work each, and prints the per-layer metrics. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; everything
else (the machine stamp, per-phase counts, the output fingerprint, the
spans) goes to ``benchmarks/e2e/out/``.

``--seconds`` fixes the *work*: each phase runs a number of identical
rounds proportional to it, sized so that the timed part takes about
that many calibrated seconds on the reference machine. A run is never
cut off by a timer, so the same seed always does the same operations.

``--agree N`` runs every workload N times twice over and fails if the
two medians of any end-to-end metric differ by more than its bound in
``BENCHMARK.json``; ``--smoke`` runs 1/20 of the work.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import calib  # pins BLAS threads; must precede numpy and repro

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("serve_unique", "serve_hot_tenants", "tune_costudy", "ckpt_store",
             "sql_foodlog")
PASSES = 3
SMOKE_SECONDS = 0.5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "alt_ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: every per-layer metric and its unit; a workload reports the layers it
#: crosses and the rest read 0.
PER_LAYER = {
    "client.latency_p95_ms": "ms", "client.latency_p99_ms": "ms",
    "client.alt_latency_p50_ms": "ms", "client.raw_ops_per_s": "1/s",
    "machine.calib_unit_ms_p50": "ms", "machine.calib_unit_ms_p90": "ms",
    "machine.calib_overhead_share": "share", "machine.startup_s": "s",
    "machine.raw_wall_s": "s",
    "trace.spans": "count", "trace.overhead_share": "share",
    "trace.coverage_share": "share",
    "api.gateway.requests": "count", "api.gateway.self_ms": "ms",
    "api.gateway.non_200": "count", "api.sdk.self_ms": "ms",
    "api.executor.batches": "count", "api.executor.self_ms": "ms",
    "tenancy.resolve.calls": "count", "tenancy.resolve.us": "us",
    "tenancy.ledger.ops": "count", "tenancy.denials": "count",
    "serve.frontend.offer.calls": "count", "serve.frontend.offer.us": "us",
    "serve.frontend.poll.calls": "count", "serve.frontend.poll.us": "us",
    "serve.frontend.shed": "count", "serve.frontend.queue_wait_ms_p50": "ms",
    "serve.batch.count": "count", "serve.batch.size_mean": "count",
    "serve.pred_cache.lookups": "count", "serve.pred_cache.hit_ratio": "share",
    "system.query.calls": "count", "system.query.self_ms": "ms",
    "system.deploy.ms": "ms",
    "tensor.predict.calls": "count", "tensor.predict.images": "count",
    "tensor.predict.ms": "ms", "tensor.train_epoch.count": "count",
    "tensor.train_epoch.ms_p50": "ms",
    "tune.trials": "count", "tune.epochs": "count", "tune.warm_starts": "count",
    "tune.advisor.propose.calls": "count", "tune.advisor.propose.ms": "ms",
    "tune.advisor.collect.ms": "ms", "tune.control.self_share": "share",
    "tune.pool.epochs_per_s_raw": "1/s", "tune.pool.bit_identical": "count",
    "ps.put.calls": "count", "ps.put.ms_p50": "ms", "ps.put.mb_per_s": "MB/s",
    "ps.get.calls": "count", "ps.get.ms_p50": "ms", "ps.get.mb_per_s": "MB/s",
    "ps.cache.hit_ratio": "share", "ps.failovers": "count",
    "ps.delete.calls": "count",
    "data.store.put_blob.calls": "count", "data.store.put_blob.ms_p50": "ms",
    "data.store.get_blob.calls": "count", "data.store.get_blob.ms_p50": "ms",
    "data.blockstore.put.mb_per_s": "MB/s",
    "data.blockstore.get_chunk.calls": "count",
    "data.blockstore.get_chunk.us": "us",
    "data.blockstore.dedup_ratio": "ratio", "data.blockstore.stored_mb": "MB",
    "data.fs.commits": "count",
    "sql.queries": "count", "sql.rows_scanned": "count", "sql.plan.ms": "ms",
    "sql.exec.self_ms": "ms", "sql.udf.calls": "count",
    "sql.udf.dispatches": "count", "sql.udf.dispatch.ms": "ms",
    "sql.udf.cache_hit_ratio": "share",
    "cluster.submit_job.calls": "count", "cluster.submit_job.ms": "ms",
    "telemetry.series": "count", "telemetry.export_json.ms": "ms",
}


def workload_factory(name: str, seed: int, seconds: float):
    """Import the program (``src/``).

    Returns the workload's ``mem_share`` and a maker of fresh workload objects.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"run.py: no program to measure: {src}/repro is missing")
    sys.path.insert(0, src)
    import wl_ckpt
    import wl_serve
    import wl_sql
    import wl_tune

    classes = {
        "serve_unique": wl_serve.ServeWorkload,
        "serve_hot_tenants": wl_serve.ServeWorkload,
        "tune_costudy": wl_tune.TuneWorkload,
        "ckpt_store": wl_ckpt.CheckpointWorkload,
        "sql_foodlog": wl_sql.SqlWorkload,
    }
    return classes[name].MEM_SHARE, lambda: classes[name](name, seed, seconds)


def run_pass(factory, clock, outcome, prefix: str = "", tracer=None):
    """One pass: set the system up, run both phases, check the outputs.

    Set-up code names its steps with ``clock.lap(kind)``, so that the
    repeats of one step can be compared with each other.
    """
    from repro import telemetry

    telemetry.reset()
    calib.quiesce()
    workload = factory()
    clock.begin(prefix + "setup", "build")
    workload.setup(clock, tracer)
    clock.end()
    if tracer is not None:
        tracer.enter("verify", timed=False)
    workload.prepare_oracle()
    calib.quiesce()
    workload.run(outcome, prefix + "primary", prefix + "alt")
    if tracer is not None:
        tracer.enter("verify", timed=False)
    workload.verify(outcome)
    workload.teardown()
    return workload


def run_once(args) -> int:
    clock = calib.CalClock()  # first tick: before the program is imported
    startup_s = calib.process_startup_s()
    clock.begin("import")
    # The work is split evenly over the passes: an end-to-end run sets up
    # and measures PASSES times over, so that its timed segments sample
    # the machine across the whole run and ``setup_s`` is a median; a
    # traced run does one pass untraced and one with spans installed.
    passes = 2 if args.trace else 1 if args.smoke else PASSES
    clock.mem_share, factory = workload_factory(
        args.workload, args.seed, args.seconds / passes)
    clock.end()
    import harness

    outcome = harness.Outcome()
    tracer = traced = None
    untraced = 1 if args.trace else passes
    for _ in range(untraced):
        run_pass(factory, clock, outcome)
    if args.trace:
        import spans
        from repro import telemetry

        tracer = spans.Tracer()
        traced = run_pass(factory, clock, outcome, "traced.", tracer)
        clock.begin("telemetry.export")
        telemetry.to_json(telemetry.get_registry())
        clock.end()
    clock.finish()

    end_to_end = {
        # each set-up step at the median of its repeats, plus the one import
        "setup_s": clock.cal_seconds("import") + clock.steady_seconds("setup") / untraced,
        "ops_per_s": clock.rate("primary"),
        "alt_ops_per_s": clock.rate("alt"),
        "latency_p50_ms": 1e3 * clock.latency_p50("primary"),
        "peak_rss_mb": calib.peak_rss_mb(),
    }
    layer = machine_layers(clock, startup_s)
    faults: list[str] = []
    if tracer is not None:
        faults = trace_layers(clock, tracer, traced, outcome, layer)
    chosen, units = (layer, PER_LAYER) if args.trace else (end_to_end, END_TO_END)
    result = {
        "correct": outcome.correct,
        "attempted": sum(outcome.attempted.values()),
        "failed": sum(outcome.failed.values()),
        "metrics": {name: {"value": float(chosen[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    stem = write_record(args, clock, outcome, result, end_to_end, layer, faults)
    if tracer is not None:
        tracer.dump(os.path.join(OUT_DIR, stem + ".spans.json"))

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} fingerprint={outcome.fingerprint[:16]}")
    for phase in sorted(outcome.attempted):
        print(f"# ops {phase}: attempted={outcome.attempted[phase]} "
              f"failed={outcome.failed.get(phase, 0)}")
    for name, count in sorted(outcome.mismatches.items()):
        print(f"# oracle {name}: {'ok' if not count else f'{count} MISMATCHES'}")
    for name, entry in result["metrics"].items():
        print(f"{name:36s} {entry['value']:16.6f} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


def machine_layers(clock, startup_s: float) -> dict[str, float]:
    """Every per-layer metric at 0, then the ones any run can fill."""
    latencies = clock.cal_latencies("primary")
    units_ms = [1e3 * t for t in clock.tick_s]
    layer = dict.fromkeys(PER_LAYER, 0.0)
    layer.update({
        "client.latency_p95_ms": 1e3 * calib.percentile(latencies, 0.95),
        "client.latency_p99_ms": 1e3 * calib.percentile(latencies, 0.99),
        "client.alt_latency_p50_ms": 1e3 * clock.latency_p50("alt"),
        "client.raw_ops_per_s": clock.ops("primary") / clock.raw_seconds("primary"),
        "machine.calib_unit_ms_p50": calib.percentile(units_ms, 0.50),
        "machine.calib_unit_ms_p90": calib.percentile(units_ms, 0.90),
        "machine.calib_overhead_share": clock.overhead_share(),
        "machine.startup_s": startup_s,
        "machine.raw_wall_s": startup_s + time.perf_counter() - clock.tick_began[0],
    })
    return layer


def trace_layers(clock, tracer, traced, outcome, layer) -> list[str]:
    """Check the spans, then read the layers' numbers off them into ``layer``."""
    import harness

    tracer.finish(clock)
    faults = tracer.check()
    outcome.oracle("span_structure", len(faults))
    timed_raw = clock.raw_seconds("traced.primary") + clock.raw_seconds("traced.alt")
    untraced = clock.cal_seconds("primary") + clock.cal_seconds("alt")
    retraced = clock.cal_seconds("traced.primary") + clock.cal_seconds("traced.alt")
    coverage = tracer.busy_raw_s(harness.TIMED) / timed_raw
    outcome.oracle("span_coverage", not 0.0 < coverage <= 1.0 + 1e-6)
    layer.update(traced.layers(tracer))
    layer.update({
        "trace.spans": len(tracer.spans),
        "trace.overhead_share": retraced / untraced - 1.0,
        "trace.coverage_share": coverage,
        "telemetry.series": harness.telemetry_series(),
        "telemetry.export_json.ms": 1e3 * clock.cal_seconds("telemetry.export"),
    })
    unknown = sorted(set(layer) - set(PER_LAYER))
    if unknown:
        raise SystemExit(f"run.py: workload reported unknown layer metrics {unknown}")
    return faults


def write_record(args, clock, outcome, result, end_to_end, layer, faults) -> str:
    """The full record of the run, for whoever has to re-read it later."""
    record = {
        **result,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "machine": {**calib.machine_stamp(ROOT),
                    "calib_unit_ms_p50": layer["machine.calib_unit_ms_p50"]},
        "end_to_end": end_to_end,
        "calibration": {
            "mem_share": clock.mem_share,
            "ticks": [list(tick) for tick in
                      zip(clock.tick_at, clock.tick_compute, clock.tick_memory)],
            "segments": [[s.phase, s.kind, s.start, s.end, s.ops] for s in clock.segments],
        },
        "phases": {
            name: {"segments": len(clock.phase(name)), "ops": clock.ops(name),
                   "raw_s": clock.raw_seconds(name), "cal_s": clock.cal_seconds(name)}
            for name in sorted({segment.phase for segment in clock.segments})
        },
        "ops_attempted": outcome.attempted, "ops_failed": outcome.failed,
        "oracle_mismatches": outcome.mismatches, "span_faults": faults[:20],
        "output_fingerprint": outcome.fingerprint,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, stem + ".json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    return stem


# -- --agree: does the benchmark repeat? -----------------------------------------

def invoke(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n"
                         f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def agree(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    names = [args.workload] if args.workload else list(WORKLOADS)
    sets: list[dict] = []
    for half in range(2):
        values = {w: {m: [] for m in bounds} for w in names}
        for workload in names:
            for i in range(args.agree):
                seed = args.seed + half * args.agree + i
                result = invoke(workload, seed, args.seconds, args.smoke)
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{workload} seed {seed}: incorrect or failed ops")
                for metric in bounds:
                    values[workload][metric].append(result["metrics"][metric]["value"])
        sets.append(values)
    worst = 0
    print(f"{'workload':18s} {'metric':15s} {'median A':>12s} {'median B':>12s} "
          f"{'worse by':>9s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}")
    for workload in names:
        for metric, (bound, better) in bounds.items():
            first, second = (s[workload][metric] for s in sets)
            a, b = statistics.median(first), statistics.median(second)
            worse = (a - b) / a if better == "higher" else (b - a) / a
            spreads = [spread(v) if len(v) > 1 else 0.0 for v in (first, second)]
            over = worse > bound or (metric != "setup_s" and max(spreads) > bound)
            worst += over
            print(f"{workload:18s} {metric:15s} {a:12.4f} {b:12.4f} {worse:+9.2%} "
                  f"{spreads[0]:9.2%} {spreads[1]:9.2%} {bound:6.0%}"
                  f"{'  <-- OVER' if over else ''}")
    print(f"{worst} metric(s) outside their bound")
    return 1 if worst else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="size of the timed work, in calibrated seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 of the work and one set-up: a CI check, not a measurement")
    parser.add_argument("--agree", type=int, metavar="N", default=0,
                        help="run each workload N times twice over and compare medians")
    args = parser.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    if args.agree:
        return agree(args)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run_once(args)
    finally:
        # on every path out: no process of this run outlives it
        calib.stop_children()


if __name__ == "__main__":
    sys.exit(main())
