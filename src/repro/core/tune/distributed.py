"""Cluster-integrated distributed tuning.

Runs a study with one tuning worker per worker container of a submitted
cluster job, over simulated time; the job's owner places it before the
study and releases it after (``Rafiki.create_train_job`` runs each of a
train job's studies on that job's containers). Node failures injected
mid-study exercise the paper's recovery story: workers are stateless,
so the manager restarts their containers on surviving nodes. A
replacement whose predecessor had a trial in flight re-runs *that same
trial* from its checkpoint (trial sessions are deterministic in the
trial, so the re-run reproduces the lost epochs exactly and the advisor
sees the same trial sequence as a healthy run); otherwise it requests a
fresh trial. Master state is checkpointed when the study ends.
"""

from __future__ import annotations

from repro import telemetry
from repro.cluster import ClusterManager
from repro.cluster.container import Container, ContainerRole
from repro.cluster.manager import JobRecord
from repro.cluster.message import Message, MessageType
from repro.core.tune.backends import TrainerBackend
from repro.core.tune.config import HyperConf
from repro.core.tune.runner import MAX_EVENTS, _running, worker_process
from repro.core.tune.study import StudyMaster, StudyReport
from repro.core.tune.trial import Trial
from repro.core.tune.worker import TuneWorker
from repro.paramserver import ParameterServer
from repro.sim import Simulator

__all__ = ["run_cluster_study"]


def run_cluster_study(
    manager: ClusterManager,
    job: JobRecord,
    master: StudyMaster,
    backend: TrainerBackend,
    param_server: ParameterServer,
    conf: HyperConf,
    failure_plan: list[tuple[float, str, float | None]] | None = None,
) -> StudyReport:
    """Run ``master`` with one worker per worker container of ``job``.

    ``job`` is placed on ``manager`` already and outlives the study: the
    caller releases it. ``failure_plan`` is a list of
    ``(delay_s, node_name, recover_after)`` failure injections. Returns
    the study report (wall time = simulated completion time).
    """
    sim = Simulator()
    workers: dict[str, TuneWorker] = {}
    # the trial currently assigned to each worker, by container id
    in_flight: dict[str, Trial] = {}
    reissued = telemetry.Counter(
        "repro_tune_trials_reissued_total",
        "In-flight trials re-issued to replacement workers.", telemetry.get_registry(),
    ).labels()

    def start_worker(container: Container) -> None:
        # The hook hears every job's recoveries on this manager.
        if container.job_id != job.job_id or container.role is not ContainerRole.WORKER:
            return
        worker = TuneWorker(
            name=container.container_id,
            backend=backend,
            param_server=param_server,
            conf=conf,
        )
        workers[worker.name] = worker
        # If this container replaces one that died mid-trial, re-issue
        # that trial (from its checkpoint) instead of letting the
        # replacement pull a fresh one — the advisor then sees exactly
        # the trial sequence of a healthy run.
        orphaned = (
            in_flight.pop(container.predecessor, None)
            if container.predecessor is not None
            else None
        )
        if orphaned is not None:
            in_flight[worker.name] = orphaned
            worker.mailbox.send(
                Message(MessageType.TRIAL, master.study_name, {"trial": orphaned})
            )
            reissued.inc()

        def alive() -> bool:
            # once the container is dead a replacement has been started
            live = manager.containers.get(container.container_id)
            return live is not None and live.running

        sim.spawn(
            worker_process(worker, master, workers, in_flight, alive)
        )

    with _running(master, sim, len(job.workers)):
        # This frame holds ``start_worker`` until the study returns, and
        # the manager holds it weakly: the hook lives exactly as long.
        manager.on_recovery(start_worker, lambda start, container: start(container))
        for container in job.workers:
            start_worker(container)

        for delay, node_name, recover_after in failure_plan or ():
            sim.schedule(delay, _fail_node, manager, sim, node_name, recover_after)

        sim.run(max_events=MAX_EVENTS)
        # Persist the small master state (Section 6.3 failure recovery).
        manager.checkpoints.save(master.study_name, master.checkpoint_state())
    return master.report


def _fail_node(manager: ClusterManager, sim: Simulator, node_name: str,
               recover_after: float | None) -> None:
    """Fail ``node_name`` now and schedule its recovery ``recover_after`` later."""
    manager.fail_node(node_name)
    if recover_after is not None:
        sim.schedule(recover_after, manager.recover_node, node_name)
