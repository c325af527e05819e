"""Trace which functions under ``src/`` a set of runs calls; print the rest.

Every ``def`` in ``src/repro`` (nested ones included) is keyed on its
file and first line (the first decorator's line for a decorated def,
which is what its code object's ``co_firstlineno`` holds) and named by
its qualified name, ``module:Class.method`` or
``module:outer.<locals>.inner``. Each run in :data:`RUNS` executes in a
fresh interpreter that installs the profiler before ``repro`` is
imported, so import-time calls count: ``cProfile`` on the main thread
and, before Python 3.12 (where one profiler sees every thread), through
``threading.setprofile`` on every thread started after it. The persistent trial pool's forked workers inherit the forking
thread's profiler; ``repro.core.tune.pool._pool_worker`` is wrapped so
each worker writes what it reached when it returns (or on SIGTERM).

The RL serving figures (fig10/13-16) run on a 6-cycle (1 680 s)
horizon instead of their 22-107 cycles, and every figure bench writes
its table to a temporary directory, so ``benchmarks/results/`` is left
as it was. A run that fails (a figure's assertion at the short horizon,
say) still counts what it reached; its exit status is printed.

    PYTHONPATH=src python tools/trace_calls.py [--run NAME ...] [--jobs N] [--json PATH]

prints each run's status, then the never-called defs by qualified name
in three groups: abstract (a placeholder body), with a reason in
:data:`REASONS`, and without one (which should be none), and the
totals; ``--json`` also writes ``{"defs", "reached", "never",
"unreasoned"}`` (qualified names) for diffing two trees. ``--run``
picks runs by name (``--list`` prints them). The whole list takes about five minutes at
``--jobs 2`` on a 2-core machine.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: the Section 7.2 arrival period (500 * tau), and the RL figures' traced horizon
PERIOD = 500 * 0.56
RL_HORIZON = 6 * PERIOD


class Run(NamedTuple):
    """One traced run: ``kind`` is ``module`` (``python -m target``),
    ``script`` (``python target``), ``main`` (import ``target`` and call
    its ``main(argv)``, after setting each ``patch`` attribute; the value
    ``"<tmp>"`` is a fresh temporary directory) or ``pytest`` (``target``
    is a test file; its module's ``patch`` attributes are set before its
    tests run)."""

    name: str
    kind: str
    target: str
    argv: tuple[str, ...] = ()
    patch: tuple[tuple[str, object], ...] = ()


def _cli(name: str, *argv: str) -> Run:
    return Run(name, "module", "repro.cli", argv)


_SQL_QUERY = "SELECT user_id FROM foodlog WHERE age_band(age) = 'young' AND age > 30"
_EXAMPLES = ("food_logging", "object_detection", "parallel_tuning", "quickstart",
             "sentiment_analysis", "serving_ensemble", "tuning_cifar")
_E2E = ("serve_unique", "serve_hot_tenants", "tune_costudy", "ckpt_store", "sql_foodlog")
_FIGURES = ("ablation_alpha", "ablation_backoff", "ablation_bandit", "ablation_halving",
            "ablation_pscache", "case_study_sql", "fig03_model_profiles", "fig06_ensemble",
            "fig08_random_costudy", "fig09_bayes_costudy", "fig11_scalability",
            "table1_hyperspace")
_RL_FIGURES = ("fig10_single_max", "fig13_single_min", "fig14_multi_min",
               "fig15_multi_max", "fig16_beta")
_SHORT = tuple((name, RL_HORIZON) for name in ("HORIZON", "BASELINE_HORIZON", "RL_HORIZON"))

#: every CLI verb, example, e2e smoke workload, perf spec and figure bench
RUNS: tuple[Run, ...] = (
    *(_cli(f"chaos-{s}", "chaos", "--scenario", s, "--seed", "0", "--verify")
      for s in ("default", "shard-kill", "store-kill", "tenants")),
    _cli("sql", "sql", "--executor", "both", "--rows", "200"),
    _cli("sql-explain", "sql", "--executor", "both", "--rows", "200", "--explain",
         "--query", _SQL_QUERY),
    _cli("tune", "tune"),
    _cli("tune-collab-bayes", "tune", "--collaborative", "--advisor", "bayesian"),
    _cli("tune-real-pool", "tune", "--real", "--processes", "2"),
    _cli("tune-shards", "tune", "--ps-shards", "3"),
    _cli("telemetry-json", "telemetry", "--trace"),
    _cli("telemetry-prom", "telemetry", "--format", "prom"),
    *(Run(f"example-{e}", "script", f"examples/{e}.py") for e in _EXAMPLES),
    *(Run(f"e2e-{w}-trace{t}", "main", "benchmarks/e2e/run.py",
          ("--workload", w, "--smoke", "--trace", str(t)), (("OUT_DIR", "<tmp>"),))
      for w in _E2E for t in (0, 1)),
    Run("perf-smoke", "script", "benchmarks/_perf.py", ("--smoke",)),
    *(Run(f"bench-{f}", "pytest", f"benchmarks/bench_{f}.py") for f in _FIGURES),
    *(Run(f"bench-{f}-6cycles", "pytest", f"benchmarks/bench_{f}.py", (), _SHORT)
      for f in _RL_FIGURES),
)


#: why each def that no run in :data:`RUNS` reaches stays, one line per
#: qualified name. An abstract def (see :func:`_is_abstract`) needs none;
#: every other never-called def must have one, or go.
REASONS: dict[str, str] = {
    # -- what tests read: product state with no other public reader
    "repro.chaos.faults:FaultPlan.invocations":
        "tests observe how often a fault point was consulted, faulted or not",
    "repro.core.serve.frontend:ServeFrontend.admitted":
        "tests observe the requests a front end admitted",
    "repro.core.serve.frontend:ServeFrontend.served":
        "tests observe the requests a front end served",
    "repro.core.serve.metrics:ServingMetrics.total_arrived":
        "tests observe the arrivals a serving run recorded (conservation checks)",
    "repro.core.serve.metrics:ServingMetrics.total_overdue":
        "tests pin a serving run's overdue requests through it",
    "repro.core.serve.pred_cache:PredictionCache.__len__":
        "tests observe how many answers the prediction cache holds",
    "repro.core.serve.pred_cache:PredictionCache.hit_rate":
        "tests observe the prediction cache's hit rate",
    "repro.core.tune.worker:TuneWorker.busy":
        "tests observe a worker holding a trial session",
    "repro.data.store:DataStore.audit":
        "the facade's replication-health read (DESIGN.md §9); tests observe it, runs audit the block store",
    "repro.paramserver.cache:LRUCache.__contains__":
        "tests observe which keys a cache holds",
    "repro.paramserver.cache:LRUCache.__len__":
        "tests observe how many entries a cache holds",
    "repro.paramserver.server:ParameterServer.versions":
        "tests observe how many versions a key has",
    "repro.sqlext.engine:ResultSet.__len__":
        "tests count a query's rows through it",
    "repro.telemetry.tracer:Tracer.spans":
        "tests observe the finished spans in completion order",
    "repro.tenancy.registry:TenantRegistry.tenants":
        "tests observe the registered tenants",
    "repro.tensor.layers:Layer.param_count":
        "Network.param_count sums it; tests observe a network's parameter count",
    "repro.tensor.network:Network.param_count":
        "tests observe a network's parameter count",
    "repro.utils.reservoir:Reservoir.stream_length":
        "tests observe how many values a reservoir was offered",
    "repro.utils.reservoir:Reservoir.values":
        "tests observe the reservoir's sample",
    "repro.zoo.registry:TaskRegistry.tasks":
        "tests observe the registered tasks (Figure 2's three)",
    # -- what tests install
    "repro.telemetry:set_tracer": "tests install a tracer through it",
    "repro.chaos:active.__init__": "tests install a fault plan for a with block through it",
    "repro.chaos:active.__enter__": "tests install a fault plan for a with block through it",
    "repro.chaos:active.__exit__": "tests install a fault plan for a with block through it",
    # -- recovery and error paths no run triggers
    "repro.data.blockstore:BlockStore.rejoin_node":
        "kill_node's standalone partner; the property-test machines drive both, store-kill reaches _member_up",
    "repro.paramserver.server:ParameterServer.revive_shard":
        "kill_shard's standalone partner; the property-test machines drive both",
    "repro.tenancy.registry:TenantRegistry.suspend":
        "the tenant control plane; ROADMAP item 7's control-plane machine drives it",
    "repro.tenancy.registry:TenantRegistry.reinstate":
        "the tenant control plane; ROADMAP item 7's control-plane machine drives it",
    "repro.core.tune.pool:TrialPool._on_error":
        "the pool's fault path: a worker process that dies",
    "repro.core.tune.pool:TrialPool._replace":
        "the pool's fault path: a worker process that dies",
    "repro.core.tune.pool:TrialPool._resubmit":
        "the pool's fault path: a worker process that dies",
    "repro.core.tune.pool:TrialPool._on_cancelled":
        "a CoStudy stopping a pooled trial (`tune --collaborative --real --processes 2`)",
    "repro.core.tune.pool:_PoolSession.cancel":
        "a CoStudy stopping a pooled trial (`tune --collaborative --real --processes 2`)",
    "repro.core.serve.frontend:ServeFrontend.fail":
        "sheds a planned batch whose dispatch failed past its retries; no run fails one",
    "repro.core.serve.frontend:ServeFrontend.shed_requests":
        "sheds admitted requests on a failed dispatch or at the async shell's shutdown",
    "repro.core.serve.frontend:_fail_future":
        "fails an awaiting client when its admitted request is shed",
    "repro.core.serve.loadgen:_Driver._on_shed":
        "wakes a simulated client when its admitted request is shed",
    "repro.core.serve.loadgen:ReplicaPool.kill":
        "takes a simulated replica out of rotation (replica death); tests kill one",
    "repro.paramserver.server:ParameterServer._serve.<locals>.hop":
        "counts a shard read or write that fails over to the next shard",
    "repro.sqlext.exec:UdfBatchDispatcher._dispatch_chunk.<locals>.on_retry":
        "counts a UDF batch call that failed and is retried",
    "repro.exceptions:RetryExhaustedError.__init__":
        "raised when a retry policy runs out of attempts",
    "repro.exceptions:TenantAccessError.__init__":
        "raised for an unknown or suspended tenant",
    "repro.telemetry.registry:_refused":
        "the error for a NaN, infinite or negative record",
    "repro.api.gateway:_boolean":
        "converts POST /train's `collaborative` field when it is not the default true",
    "repro.paramserver.server:_ChunkFile.readline":
        "pickle.Unpickler needs a file with readline; the pickles it reads never call it",
    "repro.tensor.network:Network.__getstate__":
        "copy and pickle of a network leave its workspace behind; tests copy networks",
    # -- the master restore, ROADMAP item 25
    "repro.cluster.checkpoint:CheckpointStore.has": "the master restore, ROADMAP item 25",
    "repro.cluster.checkpoint:CheckpointStore.restore": "the master restore, ROADMAP item 25",
    "repro.cluster.checkpoint:CheckpointStore.versions": "the master restore, ROADMAP item 25",
    "repro.core.tune.study:StudyMaster.restore_state": "the master restore, ROADMAP item 25",
    "repro.core.tune.schedulers:TrialScheduler.restore_state": "the master restore, ROADMAP item 25",
    "repro.core.tune.schedulers:CoStudy.restore_state": "the master restore, ROADMAP item 25",
    # -- paper features no run selects
    "repro.tensor.optimizers:ExponentialDecaySchedule.__init__": "Table 1's `lr_decay` knob",
    "repro.tensor.optimizers:ExponentialDecaySchedule.__call__": "Table 1's `lr_decay` knob",
    "repro.core.tune.advisors.grid_search:GridSearchAdvisor.__init__": '`advisor="grid"`',
    "repro.core.tune.advisors.grid_search:GridSearchAdvisor.propose": '`advisor="grid"`',
    "repro.core.tune.hyperspace:HyperSpace.grid": 'the grid `advisor="grid"` walks',
    "repro.core.tune.hyperspace:RangeKnob.grid": 'the grid `advisor="grid"` walks',
    "repro.core.tune.hyperspace:CategoricalKnob.grid": 'the grid `advisor="grid"` walks',
    "repro.core.tune.hyperspace:CategoricalKnob.decode":
        "decodes a categorical knob for the Bayesian advisor; no run tunes one",
    "repro.zoo.builders:build_vgg_mini":
        "builds the registry's vgg-mini and yolo-mini entries; no run selects either",
    "repro.core.serve.profiler:profile_network":
        "measures a deployed job's latency card; ROADMAP item 6 puts it on the serving path",
    "repro.core.serve.profiler:fit_affine_latency":
        "measures a deployed job's latency card; ROADMAP item 6 puts it on the serving path",
    "repro.core.system:Rafiki.profile_inference_job":
        "measures a deployed job's latency card; ROADMAP item 6 puts it on the serving path",
    "repro.core.serve.actor_critic:ActorCritic.state_dict":
        "saves a trained RL controller; tests reload one",
    "repro.core.serve.actor_critic:ActorCritic.load_state_dict":
        "reloads a trained RL controller; tests reload one",
    "repro.tensor.network:Network.load_state_dict":
        "loads saved parameters into a network (ActorCritic.load_state_dict, tests)",
    "repro.core.serve.frontend:AsyncServeFrontend.__aenter__":
        "`async with` starts the async shell; runs call start() and stop()",
    "repro.core.serve.frontend:AsyncServeFrontend.__aexit__":
        "`async with` stops the async shell; runs call start() and stop()",
    # -- names the frozen end-to-end harness pins, ROADMAP item 9
    "repro.paramserver.server:ParameterServer.delete":
        "the frozen harness calls it (wl_ckpt.py:118) once a key reaches 16 versions",
    "repro.paramserver.cache:LRUCache.invalidate": "ParameterServer.delete's path (item 9)",
    "repro.data.store:DataStore.delete_blobs": "ParameterServer.delete's path (item 9)",
    "repro.data.store:DataStore.has_blob": "ParameterServer.delete's path (item 9)",
    "repro.data.store:DataStore.get_blob": "the frozen harness wraps it (item 9)",
    "repro.tenancy.registry:UsageLedger.charge": "the frozen harness wraps it (item 9)",
}


# ----------------------------------------------------------------------
# the defs under src/
# ----------------------------------------------------------------------


def _defs(src: Path = SRC):
    """``(path relative to src, first line, module:qualname, node)`` of every def."""

    def walk(node, module: str, rel: str, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                yield rel, line, f"{module}:{prefix}{child.name}", child
                yield from walk(child, module, rel, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, module, rel, f"{prefix}{child.name}.")
            else:
                yield from walk(child, module, rel, prefix)

    for path in sorted(src.rglob("*.py")):
        rel = path.relative_to(src).as_posix()
        module = rel[:-3].replace("/", ".").removesuffix(".__init__")
        yield from walk(ast.parse(path.read_text()), module, rel, "")


def definitions(src: Path = SRC) -> dict[tuple[str, int], str]:
    """``(path relative to src, first line) -> module:qualname`` of every def."""
    return {(rel, line): name for rel, line, name, _ in _defs(src)}


def _is_abstract(node) -> bool:
    """A body of only a docstring, ``...`` and/or ``raise NotImplementedError``."""

    def placeholder(stmt) -> bool:
        if isinstance(stmt, ast.Expr):
            return isinstance(stmt.value, ast.Constant) and (
                isinstance(stmt.value.value, str) or stmt.value.value is Ellipsis)
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
            return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
        return False

    return all(map(placeholder, node.body))


def abstract_defs(src: Path = SRC) -> set[str]:
    """The qualified names of the defs under ``src`` that are only a
    placeholder for their subclasses' (see :func:`_is_abstract`)."""
    return {name for _, _, name, node in _defs(src) if _is_abstract(node)}


# ----------------------------------------------------------------------
# the traced interpreter (``--child``)
# ----------------------------------------------------------------------


def _child(run: Run, out: str) -> None:
    """Run ``run`` under the profiler; write the reached (file, line) pairs to ``out``."""
    import cProfile
    import threading

    profilers: list = []
    first_codes: set = set()

    def start() -> None:
        profiler = cProfile.Profile()
        profilers.append(profiler)
        profiler.enable()

    def thread_start(frame, event, arg) -> None:
        first_codes.add(frame.f_code)  # the thread's run(), seen before cProfile takes over
        start()

    def dump(path: str) -> None:
        src = str(SRC) + os.sep
        codes = set(first_codes)
        for profiler in profilers:
            codes.update(entry.code for entry in profiler.getstats())
        hits = sorted({(code.co_filename[len(src):].replace(os.sep, "/"), code.co_firstlineno)
                       for code in codes
                       if not isinstance(code, str) and code.co_filename.startswith(src)})
        with open(path, "w") as handle:
            json.dump(hits, handle)

    if sys.version_info < (3, 12):  # from 3.12 one profiler sees every thread
        threading.setprofile(thread_start)
    start()

    import signal

    from repro.core.tune import pool

    worker = pool._pool_worker

    def traced_worker(*args, **kwargs):
        where = f"{out}.{os.getpid()}"

        def terminated(signum, frame):
            dump(where)
            os._exit(128 + signum)

        signal.signal(signal.SIGTERM, terminated)
        try:
            return worker(*args, **kwargs)
        finally:
            dump(where)

    pool._pool_worker = traced_worker

    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        patch = [(attr, tmp if value == "<tmp>" else value) for attr, value in run.patch]
        try:
            status = _execute(run, patch, tmp)
        except SystemExit as stop:
            status = stop.code if isinstance(stop.code, int) else (stop.code is not None)
        except BaseException as exc:  # counted like a failing figure assertion
            print(f"trace_calls: {run.name} raised {exc!r}", file=sys.stderr)
            status = 1
    for profiler in profilers:
        profiler.disable()
    dump(out)
    sys.stdout.flush()
    os._exit(status or 0)


def _execute(run: Run, patch: list, tmp: str) -> int:
    import runpy

    target = str(ROOT / run.target)
    if run.kind == "module":
        sys.argv = [run.target, *run.argv]
        runpy.run_module(run.target, run_name="__main__", alter_sys=True)
        return 0
    if run.kind == "script":
        sys.argv = [target, *run.argv]
        sys.path.insert(0, os.path.dirname(target))
        runpy.run_path(target, run_name="__main__")
        return 0
    if run.kind == "main":
        import importlib

        sys.path.insert(0, os.path.dirname(target))
        module = importlib.import_module(Path(target).stem)
        for attr, value in patch:
            setattr(module, attr, value)
        return module.main(list(run.argv)) or 0
    if run.kind == "pytest":
        import pytest

        class Patches:
            """Short horizons per bench module; figure tables to ``tmp``."""

            @pytest.hookimpl(tryfirst=True)
            def pytest_collection_modifyitems(self, items):
                sys.modules["_harness"].RESULTS_DIR = tmp
                for item in items:
                    for attr, value in patch:
                        if hasattr(item.module, attr):
                            setattr(item.module, attr, value)

        # a timed benchmark pauses the profiler and reinstalls it as a plain callable
        return int(pytest.main([target, "-q", "-p", "no:cacheprovider", "--benchmark-disable",
                                *run.argv], plugins=[Patches()]))
    raise ValueError(f"unknown run kind {run.kind!r}")


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------


def trace(run: Run, workdir: str) -> tuple[int, set[tuple[str, int]], str]:
    """Run ``run`` in a fresh traced interpreter: its exit status, the
    ``(file, line)`` pairs it (and any pool worker it forked) reached,
    and the tail of its output."""
    out = os.path.join(workdir, "hits")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(run), out],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    hits: set[tuple[str, int]] = set()
    for name in os.listdir(workdir):  # this run's, and one per pool worker it forked
        with open(os.path.join(workdir, name)) as handle:
            hits.update((rel, line) for rel, line in json.load(handle))
    return done.returncode, hits, (done.stdout + done.stderr)[-2000:]


def trace_runs(runs, jobs: int = 1) -> set[tuple[str, int]]:
    """The defs (keys of :func:`definitions`) ``runs`` reached, ``jobs`` at
    a time; prints each run's exit status (and a failing run's last line
    of output)."""
    defs = set(definitions())
    reached: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as workdir, ThreadPoolExecutor(jobs) as executor:
        dirs = [os.path.join(workdir, str(i)) for i in range(len(runs))]
        for path in dirs:
            os.makedirs(path)
        for run, (status, hits, tail) in zip(runs, executor.map(trace, runs, dirs)):
            hits &= defs  # module and class bodies and lambdas are not defs
            reached |= hits
            last = tail.strip().splitlines()[-1:] if status else []
            print(f"{run.name:32s} exit {status}  {len(hits)} defs reached", *last,
                  sep="\n    ", flush=True)
    return reached


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", action="append", metavar="NAME",
                        help="trace only this run (repeatable); default: all of RUNS")
    parser.add_argument("--jobs", type=int, default=1, help="runs traced at once")
    parser.add_argument("--json", metavar="PATH", help="also write the result as JSON")
    parser.add_argument("--list", action="store_true", help="print the run names and exit")
    parser.add_argument("--child", nargs=2, metavar=("RUN", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    by_name = {run.name: run for run in RUNS}
    if args.child:
        name, kind, target, run_argv, patch = json.loads(args.child[0])
        _child(Run(name, kind, target, tuple(run_argv), tuple(map(tuple, patch))), args.child[1])
    if args.list:
        print("\n".join(by_name))
        return 0
    unknown = set(args.run or ()) - set(by_name)
    if unknown:
        parser.error(f"unknown run(s): {', '.join(sorted(unknown))}")
    runs = [by_name[name] for name in args.run] if args.run else list(RUNS)
    defs = definitions()
    reached = trace_runs(runs, args.jobs)
    never = sorted(defs[key] for key in set(defs) - reached)
    abstract = abstract_defs()
    groups = {"abstract": [n for n in never if n in abstract],
              "with a reason": [n for n in never if n not in abstract and n in REASONS],
              "without a reason": [n for n in never if n not in abstract and n not in REASONS]}
    print(f"\nnever called ({len(never)}):")
    for group, names in groups.items():
        print(f"  {group} ({len(names)}):")
        for name in names:
            print(f"    {name}" + (f"  -- {REASONS[name]}" if group == "with a reason" else ""))
    print(f"\n{len(defs)} defs under src/, {len(reached)} reached, {len(never)} never called: "
          + ", ".join(f"{len(names)} {group}" for group, names in groups.items()))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"defs": len(defs), "reached": sorted(defs[k] for k in reached),
                       "never": never, "unreasoned": groups["without a reason"]},
                      handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
