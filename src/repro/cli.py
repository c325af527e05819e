"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``tune`` — run a (surrogate) hyper-parameter study and report it
  (``--telemetry`` dumps the metrics snapshot afterwards);
* ``sql`` — the Section 8 case study in miniature;
* ``telemetry`` — exercise every subsystem briefly and print the
  unified metrics snapshot (JSON or Prometheus text exposition);
* ``chaos`` — run one of the seeded fault-injection scenarios
  (``--scenario default|shard-kill|store-kill|tenants``), print its
  summary and exit non-zero unless its checks pass (``--verify`` also
  re-runs it and requires an identical trace).

Figure 2's SDK flow is ``examples/quickstart.py``; the Figure 3 model
cards and the Figure 6 ensemble table are
``benchmarks/results/fig03_model_profiles.txt`` and ``fig06_ensemble.txt``,
written by their benches; the serving front end under open- and
closed-loop load is ``benchmarks/bench_perf_serve.py`` (``BENCH_serve.json``).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.chaos.scenarios import SCENARIOS, run_scenario

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Rafiki (VLDB 2018) reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="run a hyper-parameter study (surrogate)")
    tune.add_argument("--trials", type=int, default=60)
    tune.add_argument("--workers", type=int, default=3)
    tune.add_argument("--advisor", choices=("random", "bayesian"), default="random")
    tune.add_argument("--collaborative", action="store_true",
                      help="use CoStudy (Algorithm 2) instead of Study")
    tune.add_argument("--seed", type=int, default=0)
    tune.add_argument("--real", action="store_true",
                      help="train real NumPy networks instead of the surrogate")
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

    return parser


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

    if args.processes and not args.real:
        print("--processes requires --real (the surrogate is already instant)",
              file=sys.stderr)
        return 2
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
    if args.processes:
        report = run_study_parallel(master, workers, processes=args.processes)
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
    a node failure it is told of through ``fail_node``, and the
    recovery; silence detection is not modelled) and the gateway (a
    couple of routed requests), so the printed snapshot demonstrates
    the full metric surface. ``--trace`` turns the process tracer on
    first and prints the flow's spans too.
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

    # cluster + gateway: place jobs, fail/recover a node, then issue
    # routed requests against the facade.
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


_COMMANDS = {
    "tune": _cmd_tune,
    "sql": _cmd_sql,
    "telemetry": _cmd_telemetry,
    "chaos": _cmd_chaos,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
