"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``profiles`` — print the Figure 3 model cards;
* ``ensemble`` — print the Figure 6 ensemble-accuracy table;
* ``tune`` — run a (surrogate) hyper-parameter study and report it
  (``--telemetry`` dumps the metrics snapshot afterwards);
* ``demo`` — the Figure 2 quickstart: train, deploy and query a small
  real model through the SDK;
* ``sql`` — the Section 8 case study in miniature;
* ``telemetry`` — exercise every subsystem briefly and print the
  unified metrics snapshot (JSON or Prometheus text exposition);
* ``chaos`` — run one of the seeded fault-injection scenarios
  (``--scenario default|shard-kill|store-kill|tenants``), print its
  summary and exit non-zero unless its checks pass (``--verify`` also
  re-runs it and requires an identical trace);
* ``serve`` — drive the admission-controlled serving front end under
  open/closed-loop generated load (docs/SERVING.md).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from repro.chaos.scenarios import SCENARIOS, run_scenario

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Rafiki (VLDB 2018) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("profiles", help="print the Figure 3 model cards")

    ensemble = sub.add_parser("ensemble", help="print the Figure 6 accuracy table")
    ensemble.add_argument("--examples", type=int, default=20_000,
                          help="Monte-Carlo panel size")

    tune = sub.add_parser("tune", help="run a hyper-parameter study (surrogate)")
    tune.add_argument("--trials", type=int, default=60)
    tune.add_argument("--workers", type=int, default=3)
    tune.add_argument("--advisor", choices=("random", "bayesian"), default="random")
    tune.add_argument("--collaborative", action="store_true",
                      help="use CoStudy (Algorithm 2) instead of Study")
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--real", action="store_true",
                      help="train real NumPy networks instead of the surrogate")
    tune.add_argument("--pool-reuse", action="store_true",
                      help="with --real: run the study twice on one persistent "
                           "pool and report cold vs warm wall-clock")
    tune.add_argument("--processes", type=int, default=0, metavar="N",
                      help="with --real: run trials on a persistent pool of N "
                           "child processes, one pipe to each "
                           "(0 = in-process)")
    tune.add_argument("--ps-shards", type=int, default=1, metavar="N",
                      help="serve the parameter server through N failover "
                           "cache shards over a max(3, N)-datanode block "
                           "store")
    tune.add_argument("--ps-replicas", type=int, default=2, metavar="R",
                      help="chunk replication factor of that block store "
                           "(each value is stored once, each of its chunks "
                           "on R datanodes)")
    tune.add_argument("--telemetry", action="store_true",
                      help="print the telemetry snapshot after the study")

    demo = sub.add_parser("demo", help="train, deploy and query a real model")
    demo.add_argument("--classes", type=int, default=3)
    demo.add_argument("--trials", type=int, default=3)
    demo.add_argument("--seed", type=int, default=0)

    sql = sub.add_parser("sql", help="run the Section 8 SQL/UDF case study")
    sql.add_argument("--query", default=None,
                     help="SQL to run instead of the built-in case-study query")
    sql.add_argument("--executor", choices=("planned", "naive", "both"),
                     default="both",
                     help="which executor to run (default: both, comparing)")
    sql.add_argument("--explain", action="store_true",
                     help="print the logical plan after the run, each operator with "
                          "its rows out, time and UDF work (EXPLAIN ANALYZE)")
    sql.add_argument("--rows", type=int, default=30,
                     help="rows in the generated foodlog table")
    sql.add_argument("--seed", type=int, default=0)

    tele = sub.add_parser(
        "telemetry",
        help="exercise tune/serve/paramserver/cluster/gateway and dump the snapshot",
    )
    tele.add_argument("--format", choices=("json", "prom"), default="json",
                      help="snapshot format: JSON or Prometheus text exposition")
    tele.add_argument("--trace", action="store_true",
                      help="trace the flow and include its spans (JSON format only)")
    tele.add_argument("--seed", type=int, default=0)

    chaos_cmd = sub.add_parser(
        "chaos",
        help="run a seeded chaos scenario, print its summary and check it",
    )
    chaos_cmd.add_argument("--scenario", choices=tuple(SCENARIOS), default="default")
    chaos_cmd.add_argument("--seed", type=int, default=0)
    chaos_cmd.add_argument("--json", action="store_true",
                           help="print the full result (trace included) as JSON")
    chaos_cmd.add_argument("--verify", action="store_true",
                           help="run the scenario twice and require identical traces")

    serve_cmd = sub.add_parser(
        "serve", help="drive the serving path under generated load"
    )
    serve_cmd.add_argument("--mode", choices=("open", "closed"), default="open",
                           help="load shape: sine arrivals vs think-time clients")
    serve_cmd.add_argument("--rate", type=float, default=None, metavar="QPS",
                           help="open loop: target arrival rate "
                                "(default 1.2x single-replica capacity)")
    serve_cmd.add_argument("--clients", type=int, default=16,
                           help="client identities (closed loop: one user each)")
    serve_cmd.add_argument("--think-time", type=float, default=0.02,
                           help="closed loop: seconds between response and next request")
    serve_cmd.add_argument("--duration", type=float, default=30.0,
                           help="seconds of simulated load")
    serve_cmd.add_argument("--replicas", type=int, default=2)
    serve_cmd.add_argument("--tau", type=float, default=0.56,
                           help="the SLO deadline in seconds")
    serve_cmd.add_argument("--rate-limit", type=float, default=None, metavar="QPS",
                           help="per-client token-bucket rate (default: off)")
    serve_cmd.add_argument("--max-queue", type=int, default=1024)
    serve_cmd.add_argument("--autoscale", action="store_true",
                           help="let the ScalingAdvisor grow/shrink the replica "
                                "pool off the live telemetry gauges")
    serve_cmd.add_argument("--model", default="inception_v3",
                           help="zoo profile supplying the c(b) latency model")
    serve_cmd.add_argument("--seed", type=int, default=0)
    serve_cmd.add_argument("--json", action="store_true",
                           help="print the summary as JSON")

    return parser


def _cmd_profiles(args) -> int:
    from repro.zoo import list_profiles

    print(f"{'model':<22} {'top-1':>6} {'iter(s)':>8} {'mem(MB)':>8}")
    for profile in sorted(list_profiles(), key=lambda p: p.iteration_time_b50):
        print(f"{profile.name:<22} {profile.top1_accuracy:>6.3f} "
              f"{profile.iteration_time_b50:>8.3f} {profile.memory_mb:>8.0f}")
    return 0


def _cmd_ensemble(args) -> int:
    from repro.zoo import EnsembleAccuracyModel

    panel = EnsembleAccuracyModel(
        ("resnet_v2_101", "inception_v3", "inception_v4", "inception_resnet_v2"),
        num_examples=args.examples,
    )
    print(f"{'k':<3} {'accuracy':>9}  models")
    for names, accuracy in sorted(panel.accuracy_table().items(),
                                  key=lambda kv: (len(kv[0]), -kv[1])):
        print(f"{len(names):<3} {accuracy:>9.4f}  {' + '.join(names)}")
    return 0


def _cmd_tune(args) -> int:
    from repro import telemetry
    from repro.core.tune import (
        BayesianAdvisor,
        CoStudy,
        HyperConf,
        RandomSearchAdvisor,
        RealTrainer,
        StudyMaster,
        SurrogateTrainer,
        make_workers,
        run_study,
        run_study_parallel,
        section71_space,
    )
    from repro.data import DataStore
    from repro.paramserver import ParameterServer

    if (args.processes or args.pool_reuse) and not args.real:
        print("--processes/--pool-reuse require --real (the surrogate is "
              "already instant)", file=sys.stderr)
        return 2
    if args.pool_reuse and not args.processes:
        args.processes = max(1, os.cpu_count() or 1)
    if args.ps_shards < 1:
        print("--ps-shards must be >= 1", file=sys.stderr)
        return 2
    max_epochs = 6 if args.real else 50
    conf = HyperConf(max_trials=args.trials, max_epochs_per_trial=max_epochs,
                     delta=0.005)
    advisor_cls = {"random": RandomSearchAdvisor, "bayesian": BayesianAdvisor}[args.advisor]
    if args.real:
        from repro.data import make_image_classification
        from repro.zoo.builders import build_mlp

        dataset = make_image_classification(
            name="tune", num_classes=3, image_shape=(3, 8, 8),
            train_per_class=24, val_per_class=8, test_per_class=8,
            difficulty=0.3, seed=args.seed,
        )
        backend = RealTrainer(dataset, build_mlp, batch_size=16,
                              use_augmentation=False, seed=args.seed)
    else:
        backend = SurrogateTrainer(seed=args.seed)

    def build_study():
        param_server = ParameterServer(
            store=DataStore("ps-backing", nodes=max(3, args.ps_shards),
                            replicas=args.ps_replicas),
            shards=args.ps_shards,
        )
        advisor = advisor_cls(section71_space(), rng=np.random.default_rng(args.seed))
        scheduler = None
        if args.collaborative:
            scheduler = CoStudy(rng=np.random.default_rng(args.seed + 7))
        master = StudyMaster("cli", conf, advisor, param_server, scheduler=scheduler)
        workers = make_workers(master, backend, param_server, conf, args.workers)
        return master, workers

    if args.pool_reuse:
        from repro.core.tune import TrialPool

        walls = []
        fingerprints = []
        with TrialPool(processes=args.processes) as pool:
            for label in ("cold", "warm"):
                master, workers = build_study()
                with telemetry.get_tracer().span("tune.pool.study", pool=label) as study:
                    report = run_study_parallel(master, workers, pool=pool)
                walls.append((label, study.duration))
                fingerprints.append(
                    [(e.index, e.performance, e.epochs, e.time)
                     for e in report.history]
                )
        for label, wall in walls:
            print(f"{label} study on reused pool: {wall:.3f}s wall-clock")
        identical = fingerprints[0] == fingerprints[1]
        print(f"reports bit-identical across pool reuse: {identical}")
    else:
        master, workers = build_study()
        if args.processes:
            report = run_study_parallel(master, workers,
                                        processes=args.processes)
        else:
            report = run_study(master, workers)
    best = report.best
    kind = "CoStudy" if args.collaborative else "Study"
    print(f"{kind} with {args.advisor} search: {len(report.results)} trials, "
          f"{report.total_epochs} epochs, {report.wall_time / 3600:.1f} simulated hours")
    print(f"best accuracy {best.performance:.4f} with:")
    for name, value in sorted(best.trial.params.items()):
        print(f"  {name:<14} {value:.5g}")
    if args.telemetry:
        print()
        print(telemetry.to_json(telemetry.get_registry()))
    return 0


def _cmd_demo(args) -> int:
    import repro as rafiki
    from repro.api.sdk import connect
    from repro.data import make_image_classification

    connect()
    photos = make_image_classification(
        name="demo", num_classes=args.classes, image_shape=(3, 8, 8),
        train_per_class=24, val_per_class=8, test_per_class=8,
        difficulty=0.3, seed=args.seed,
    )
    data = rafiki.import_images(photos)
    job_id = rafiki.Train(
        name="demo", data=data, task="ImageClassification",
        hyper=rafiki.HyperConf(max_trials=args.trials, max_epochs_per_trial=6),
    ).run()
    models = rafiki.get_models(job_id)
    infer_id = rafiki.Inference(models).run()
    correct = 0
    for i in range(len(photos.test_y)):
        ret = rafiki.query(job=infer_id, data={"img": photos.test_x[i]})
        correct += int(ret["label"] == photos.test_y[i])
    print(f"trained {[m['model_name'] for m in models]}; "
          f"test accuracy {correct}/{len(photos.test_y)}")
    return 0


def _cmd_sql(args) -> int:
    from repro.sqlext import Column, Database

    db = Database()
    db.create_table("foodlog", [
        Column("user_id", "integer"), Column("age", "integer", not_null=True),
        Column("food", "text", not_null=True),
    ], primary_key=("user_id",))
    rng = np.random.default_rng(args.seed)
    foods = ("laksa", "chicken rice", "salad")
    for i in range(args.rows):
        db.insert("foodlog", user_id=i, age=int(rng.integers(18, 80)),
                  food=foods[int(rng.integers(0, 3))])
    db.udfs.register("age_band", lambda age: "young" if age < 40 else "older")
    sql = args.query or (
        "SELECT age_band(age) AS band, food, count(*) FROM foodlog "
        "WHERE age > 30 GROUP BY band, food"
    )
    print(sql)
    executors = ("planned", "naive") if args.executor == "both" else (args.executor,)
    results = {}
    for executor in executors:
        result = db.execute(sql, executor=executor)
        results[executor] = result
        for row in result.rows:
            print(" ", row)
        print(f"[{executor}] UDF calls: {result.udf_calls}, "
              f"batches: {result.udf_batches}, cache hits: {result.cache_hits}")
    if args.explain:  # the planned run's node spans, top node first, one per line
        plan = db.explain(sql).splitlines()
        for index, span in enumerate(results["planned"].spans if "planned" in results else ()):
            tags = span.tags
            plan[index] += (f"  [rows {tags['rows']}, {span.duration * 1e3:.3f} ms, "
                            f"UDF args {tags['udf_calls']}, dispatches {tags['udf_batches']}, "
                            f"cache hits {tags['cache_hits']}]")
        print("\n".join(plan))
    if len(results) == 2:
        planned, naive = results["planned"], results["naive"]
        match = (planned.columns, repr(planned.rows)) == (naive.columns, repr(naive.rows))
        print(f"planned == naive: {match}")
        return 0 if match else 1
    return 0


def _cmd_telemetry(args) -> int:
    """Drive every subsystem briefly, then print the unified snapshot.

    The exercise touches tune (a small surrogate CoStudy), the
    parameter server (the study's kPut/warm-start traffic), serve (a
    short greedy single-model run), the cluster manager (job placement,
    heartbeats, a failure + recovery) and the gateway (a couple of
    routed requests), so the printed snapshot demonstrates the full
    metric surface. ``--trace`` turns the process tracer on first and
    prints the flow's spans too.
    """
    from repro import telemetry
    from repro.api.gateway import Gateway
    from repro.core.serve import (
        FrontendConfig,
        GreedySingleController,
        LoadGenConfig,
        ReplicaPool,
        ServeFrontend,
        run_load,
    )
    from repro.core.system import Rafiki
    from repro.core.tune import (
        CoStudy,
        HyperConf,
        RandomSearchAdvisor,
        StudyMaster,
        SurrogateTrainer,
        make_workers,
        run_study,
        section71_space,
    )
    from repro.zoo import get_profile

    if args.trace:
        telemetry.get_tracer().enabled = True
    # tune + paramserver: a small collaborative study on the surrogate,
    # kept in the facade's own parameter server.
    system = Rafiki(nodes=3, gpus_per_node=3, seed=args.seed)
    param_server = system.param_server
    conf = HyperConf(max_trials=8, max_epochs_per_trial=30, delta=0.005)
    advisor = RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(args.seed))
    master = StudyMaster("telemetry", conf, advisor, param_server,
                         scheduler=CoStudy(rng=np.random.default_rng(args.seed + 7)))
    workers = make_workers(master, SurrogateTrainer(seed=args.seed), param_server,
                           conf, num_workers=2)
    run_study(master, workers)

    # serve: a short greedy single-model run at a modest arrival rate.
    profile = get_profile("inception_v3")
    config = FrontendConfig(latency=profile.inference_time)
    policy = GreedySingleController(profile, config.batch_sizes, config.tau)
    run_load(
        ServeFrontend(config, policy=policy),
        ReplicaPool(profile.inference_time),
        LoadGenConfig(target_rate=150.0, duration=30.0, seed=args.seed),
    )

    # cluster + gateway: place jobs, heartbeat, fail/recover a node,
    # then issue routed requests against the facade.
    for node_name in list(system.cluster.nodes):
        system.cluster.heartbeat(node_name)
    from repro.cluster.manager import JobKind

    system.cluster.submit_job(JobKind.TRAIN, name="tele", num_workers=2)
    victim = next(iter(system.cluster.nodes))
    system.cluster.fail_node(victim)
    system.cluster.recover_node(victim)
    gateway = Gateway(system)
    gateway.handle("GET", "/datasets")
    gateway.handle("GET", "/dashboard")

    registry = telemetry.get_registry()
    if args.format == "prom":
        print(telemetry.render_prometheus(registry), end="")
    else:
        tracer = telemetry.get_tracer() if args.trace else None
        print(telemetry.to_json(registry, tracer))
    return 0


def _cmd_chaos(args) -> int:
    return run_scenario(args.scenario, args.seed, args.verify, args.json)


def _cmd_serve(args) -> int:
    """Drive the serving path under generated load and summarise it."""
    import json

    from repro.zoo import get_profile

    profile = get_profile(args.model)
    latency = profile.inference_time
    from repro.core.serve import (
        FrontendConfig,
        LoadGenConfig,
        ReplicaPool,
        ScalingAdvisor,
        ServeFrontend,
        capacity_qps,
        run_load,
    )

    rate = args.rate
    if rate is None:
        rate = 1.2 * capacity_qps(latency, 64, 1)
    config = FrontendConfig(
        latency=latency,
        tau=args.tau,
        max_queue=args.max_queue,
        rate_limit=args.rate_limit,
    )
    frontend = ServeFrontend(config)
    pool = ReplicaPool(latency, replicas=args.replicas)
    load = LoadGenConfig(
        mode=args.mode,
        target_rate=rate,
        clients=args.clients,
        think_time=args.think_time,
        duration=args.duration,
        seed=args.seed,
    )
    advisor = ScalingAdvisor() if args.autoscale else None
    trace = run_load(frontend, pool, load, autoscaler=advisor)
    summary = trace.summary()
    summary["replicas_final"] = pool.size
    summary["fingerprint"] = trace.fingerprint()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(f"front end under {args.mode}-loop load for {args.duration:.0f}s "
          f"({args.replicas} replica(s), tau={args.tau}s):")
    print(f"  offered {summary['offered']} ({summary['offered_qps']:.1f} qps), "
          f"served {summary['served']} ({summary['sustained_qps']:.1f} qps), "
          f"shed {summary['shed']} ({100 * summary['shed_rate']:.1f}%)")
    print(f"  latency p50/p95/p99: {summary['p50_s'] * 1000:.1f} / "
          f"{summary['p95_s'] * 1000:.1f} / {summary['p99_s'] * 1000:.1f} ms "
          f"(SLO miss rate {100 * summary['slo_miss_rate']:.2f}%)")
    if summary["shed_by_reason"]:
        reasons = ", ".join(f"{k}={v}" for k, v in sorted(summary["shed_by_reason"].items()))
        print(f"  shed by reason: {reasons}")
    if args.autoscale:
        print(f"  replicas after autoscaling: {pool.size}")
    print(f"  trace fingerprint: {summary['fingerprint'][:16]}…")
    return 0


_COMMANDS = {
    "profiles": _cmd_profiles,
    "ensemble": _cmd_ensemble,
    "tune": _cmd_tune,
    "demo": _cmd_demo,
    "sql": _cmd_sql,
    "telemetry": _cmd_telemetry,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
