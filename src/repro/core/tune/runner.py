"""Drive a study to completion over simulated time.

The master is reactive (it replies synchronously when messages arrive);
each worker is a simulated process that consumes ``epoch_cost`` seconds
per training epoch. With N workers the epochs overlap in simulated
time, which is exactly what the Figure 11 scalability study measures.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable

from repro import telemetry
from repro.cluster.message import MessageType
from repro.core.tune.backends import TrainerBackend
from repro.core.tune.config import HyperConf
from repro.core.tune.study import StudyMaster, StudyReport
from repro.core.tune.trial import Trial
from repro.core.tune.worker import TuneWorker
from repro.paramserver import ParameterServer
from repro.sim import Simulator

__all__ = ["run_study", "make_workers", "worker_process"]

#: event cap of every driver's simulator: a study whose workers never
#: all shut down (a parked worker polls forever) ends instead of hanging.
MAX_EVENTS = 5_000_000


def make_workers(
    master: StudyMaster,
    backend: TrainerBackend,
    param_server: ParameterServer,
    conf: HyperConf,
    num_workers: int,
    name_prefix: str = "worker",
) -> list[TuneWorker]:
    """Create ``num_workers`` workers for ``master``'s study (workers are
    policy-free: each trial carries its own stop rule)."""
    return [
        TuneWorker(
            name=f"{name_prefix}-{i}",
            backend=backend,
            param_server=param_server,
            conf=conf,
        )
        for i in range(num_workers)
    ]


def worker_process(
    worker: TuneWorker,
    master: StudyMaster,
    workers: dict[str, TuneWorker],
    in_flight: dict[str, Trial],
    alive: Callable[[], bool] = lambda: True,
):
    """One worker's simulated process: the only master/worker message pump.

    Every driver spawns this generator on its simulator.  ``workers``
    routes the master's replies by name (a cluster study adds
    replacement workers to it while running; replies to unknown names
    are dropped), ``in_flight`` is kept equal to the trial each worker
    currently holds (what a replacement re-issues), and ``alive`` ends
    the process when the worker's container has died.
    """
    while not worker.terminated and alive():
        outgoing, cost = worker.step()
        for message in outgoing:
            if message.type is MessageType.FINISH:
                in_flight.pop(worker.name, None)
            master.mailbox.send(message)
        if outgoing:
            for dest, reply in master.step():
                if reply.type is MessageType.TRIAL:
                    in_flight[dest] = reply.payload["trial"]
                target = workers.get(dest)
                if target is not None:
                    target.mailbox.send(reply)
        if cost > 0:
            yield cost
        elif not outgoing and not worker.mailbox:
            if worker.awaiting_trial:
                # Parked by the master (e.g. at a successive-halving
                # rung barrier): poll the mailbox periodically.
                yield 1.0
            else:
                # A stalled worker (no work, no pending replies)
                # would spin forever; this cannot happen with a
                # well-behaved master, but guard against bugs.
                return


@contextmanager
def _running(master: StudyMaster, sim: Simulator, workers: int):
    """How every driver runs a study: bind the master to ``sim``'s clock,
    span the run as ``run_study``, then finalize the report and tag the span."""
    master.set_clock(lambda: sim.now)
    with telemetry.get_tracer().span(
        "run_study", study=master.study_name, workers=workers
    ) as span:
        yield
        report = master.finalize(wall_time=sim.now)
        span.tag(trials=len(report.results), simulated_seconds=sim.now)


def run_study(master: StudyMaster, workers: list[TuneWorker]) -> StudyReport:
    """Run master + workers until every worker has shut down.

    Returns the study report with ``wall_time`` set to the simulated
    completion time.
    """
    sim = Simulator()
    by_name = {worker.name: worker for worker in workers}
    in_flight: dict[str, Trial] = {}
    with _running(master, sim, len(workers)):
        for worker in workers:
            sim.spawn(worker_process(worker, master, by_name, in_flight))
        sim.run(max_events=MAX_EVENTS)
    return master.report
