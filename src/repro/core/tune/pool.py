"""Persistent worker pool for trial execution, one pipe per worker.

:func:`~repro.core.tune.runner.run_study` interleaves every worker's
epochs on one core: simulated time overlaps, real time does not.  A
:class:`~repro.core.tune.backends.RealTrainer` study spends nearly all
its real wall-clock inside ``train_epoch``, so — following Ray Tune's
long-lived-executor design — this module farms that epoch work out to
OS processes while leaving the master/worker message flow, and
therefore the simulated-time :class:`StudyReport`, untouched:

* :class:`TrialPool` owns N **long-lived** child processes that
  survive across trials *and across studies* — create one, run any
  number of studies through it, shut it down once.  Workers cache the
  rebuilt :class:`RealTrainer` per study spec (and, being long-lived,
  keep the process-level im2col/col2im index memos warm between
  trials).
* Every worker has its **own duplex pipe**, and that pipe is the
  pool's only transport: jobs, cancels, warm-start states, per-epoch
  snapshots and final states all cross it as pickled records.  The
  parent hands each job to one specific idle worker and sleeps on all
  pipes and process sentinels at once, so it always knows which job a
  worker holds and a dying worker can take nothing shared (no queue
  lock, no OS resource) with it.
* A study's **dataset rides the first job** of its spec that a worker
  is handed: the parent records what each worker's bounded trainer
  cache holds (:func:`_cache_put` is the one eviction rule both sides
  run), and a replacement worker starts knowing nothing.
* Children free-run whole trials and stream **one record per epoch**,
  so the sessions of a study's other workers start (and overlap) as
  soon as the first epoch of the first trial is back.  A child applies
  the same :class:`~repro.core.tune.early_stopping.TrialStopRule` as
  the parent :class:`~repro.core.tune.worker.TuneWorker` and so stops
  at exactly the parent's epoch; for masters that stop trials
  centrally (CoStudy) each epoch record carries a state snapshot, so
  mid-trial ``kPut`` checkpoints see the sequential run's parameters.
* Fault tolerance matches the chaos layer's contract: an exception in
  a child (e.g. an injected ``tune.pool.trial`` fault) or a **dead
  worker process** re-issues the in-flight trial to another pool
  member; the deterministic re-run's replayed epochs are discarded, so
  the parent session continues exactly where the crash interrupted it.
  Dead workers are replaced to keep the pool at full strength.

Determinism is inherited from the sessions being pure functions of
``(trial, init_state)``: for a fixed seed, a study run through
:func:`run_study_parallel` is bit-for-bit identical to
:func:`~repro.core.tune.runner.run_study` — same trial seeds, same
early-stop epochs, same :class:`StudyReport`.

Telemetry (parent-side): pool size, queue depth, task latency,
worker restarts, and IPC bytes by direction. A child keeps no span:
each ``epoch`` record carries its ``tune.pool.epoch`` span's start and
end home, where the consuming session records it under the worker's
``tune.epoch`` (skipped replays drop theirs).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait
from typing import Any

import numpy as np

from repro import chaos, telemetry
from repro.core.tune.backends import RealTrainer
from repro.core.tune.config import HyperConf
from repro.core.tune.early_stopping import TrialStopRule
from repro.core.tune.runner import run_study
from repro.core.tune.study import StudyMaster, StudyReport
from repro.core.tune.trial import Trial
from repro.core.tune.worker import TRIAL_ATTEMPTS, TuneWorker
from repro.data.datasets import ImageDataset
from repro.exceptions import ConfigurationError

__all__ = ["TrialPool", "PoolTrialExecutor", "run_study_parallel"]

#: task-latency histogram buckets (real seconds).
TASK_SECONDS_BUCKETS = (0.001, 0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0)


# ----------------------------------------------------------------------
# what crosses the pipe
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _PoolSpec:
    """Everything but the dataset that a worker needs to build a study's trainer.

    Carried on every job (it is a few hundred bytes); workers cache the
    built trainer keyed by :attr:`fingerprint`, so repeat jobs and
    follow-up studies over the same dataset skip the rebuild entirely.
    """

    dataset_key: int  # the pool's name for the dataset; the data rides the job
    builder: Any
    batch_size: int
    seconds_per_epoch: float
    use_augmentation: bool
    arch_knobs: tuple[str, ...]
    seed: int
    conf: HyperConf

    @property
    def fingerprint(self) -> tuple:
        return (
            self.dataset_key,
            getattr(self.builder, "__module__", ""),
            getattr(self.builder, "__qualname__", repr(self.builder)),
            self.batch_size,
            self.seconds_per_epoch,
            self.use_augmentation,
            self.arch_knobs,
            self.seed,
        )


def _cache_put(cache: dict, fingerprint: tuple, value: Any) -> None:
    """Insert into a worker's trainer cache: at most four, first in first out.

    The worker runs this on its trainers and the parent on its record
    of what that worker holds, so both always agree on whether a job
    still has to carry its dataset.
    """
    if len(cache) >= 4:  # keep the worker's footprint bounded
        del cache[next(iter(cache))]
    cache[fingerprint] = value


# ----------------------------------------------------------------------
# the worker body
# ----------------------------------------------------------------------


def _pool_worker(conn: Connection, inherited: list[Connection]) -> None:
    """Long-lived child: rebuild trainers lazily, run trials until told to stop.

    Jobs arrive on ``conn``, with the dataset when the parent knows
    this worker holds no trainer for the spec; records go back on it,
    each tagged with the job's ``generation`` and trial id: ``epoch``
    after every epoch (with a state snapshot when the master stops
    trials centrally, then the epoch span's start and end), ``done``
    with the final state, ``cancelled`` when the parent sent the tag
    back (nobody reads that run any more), ``error`` with the exception
    repr.  ``inherited`` are the parent's
    pipe ends copied at fork: while a copy is open, a killed parent
    reads as EOF to nobody.
    """
    for end in inherited:
        end.close()
    # spans here only time: each epoch's goes home in its record
    tracer = telemetry.Tracer(enabled=False)
    trainers: dict[tuple, RealTrainer] = {}

    while True:
        try:
            job = conn.recv()
        except EOFError:  # the parent is gone
            return
        if job is None:
            return
        if len(job) == 2:  # a cancel that crossed its trial's last record
            continue
        spec, trial, init_state, generation, dataset = job
        tag = (generation, trial.trial_id)
        try:
            with tracer.span("tune.pool.trial", trial_id=trial.trial_id) as span:
                fingerprint = spec.fingerprint
                if dataset is not None:  # a spec this worker does not hold
                    trainer = RealTrainer(
                        dataset=dataset,
                        builder=spec.builder,
                        batch_size=spec.batch_size,
                        seconds_per_epoch=spec.seconds_per_epoch,
                        use_augmentation=spec.use_augmentation,
                        arch_knobs=spec.arch_knobs,
                        seed=spec.seed,
                    )
                    _cache_put(trainers, fingerprint, trainer)
                session = trainers[fingerprint].start(trial, init_state)
                stop_rule = TrialStopRule(trial, spec.conf)
                finished = cancelled = False
                while not (finished or cancelled):
                    chaos.fire("tune.pool.trial")
                    with tracer.span("tune.pool.epoch") as epoch:
                        accuracy = session.run_epoch()
                    # the parent may be stopped (and asked to kPut) after
                    # any epoch, so it then needs every epoch's state
                    snapshot = None if trial.local_early_stop else session.state_dict()
                    conn.send(("epoch", *tag, float(accuracy), snapshot, epoch.start, epoch.end))
                    finished = stop_rule.update(accuracy)
                    # mid-trial the pipe carries only cancels (jobs go
                    # to idle workers); one for an earlier trial is stale
                    while not cancelled and conn.poll():
                        cancelled = conn.recv() == tag
                state = None if cancelled else session.state_dict()
            if cancelled:
                conn.send(("cancelled", *tag))
                continue
            conn.send(("done", *tag, state, span.duration))
        except Exception as exc:  # surfaced (and maybe retried) in the parent
            conn.send(("error", *tag, repr(exc)))


# ----------------------------------------------------------------------
# parent-side bookkeeping
# ----------------------------------------------------------------------


@dataclass
class _Worker:
    """One pool process and the parent's end of its pipe."""

    proc: Any
    conn: Connection
    #: ``(trial_id, generation)`` of the job it was handed; None when idle.
    job: tuple[int, int] | None = None
    #: fingerprints in its trainer cache, kept in step by :func:`_cache_put`.
    holds: dict[tuple, None] = field(default_factory=dict)


@dataclass
class _TrialState:
    """Demultiplexer state for one trial id."""

    generation: int = 0
    job: tuple | None = None
    records: deque = field(default_factory=deque)
    consumed: int = 0  # records the session has popped this submission
    skip: int = 0  # replayed records to discard after a resubmission
    crashes: int = 0
    final_state: dict[str, np.ndarray] | None = None


class TrialPool:
    """A pool of long-lived trial-training processes.

    Use as a context manager (or call :meth:`shutdown`).  One pool can
    serve many studies, one after another (records are demultiplexed by
    trial id, which is unique within a study only), via
    :class:`PoolTrialExecutor` instances bound to it; the
    ``pool_reuse_cold``/``warm`` rows of ``benchmarks/bench_perf_parallel.py``
    time one pool kept open across two studies.
    """

    #: seconds without any worker record before the pool is declared dead.
    RESULT_TIMEOUT = 600.0

    def __init__(self, processes: int | None = None):
        self.processes = int(processes) if processes else (os.cpu_count() or 1)
        if self.processes < 1:
            raise ConfigurationError(f"processes must be >= 1, got {processes}")
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        self._workers: list[_Worker] = []
        #: jobs no worker was idle for yet, oldest first.
        self._pending: deque[tuple] = deque()
        self._trials: dict[int, _TrialState] = {}
        #: by ``id(dataset)``; the strong refs keep those keys unique.
        self._datasets: dict[int, ImageDataset] = {}
        registry = telemetry.get_registry()
        submitted, self._records, self._trial_errors, restarts, ipc = (
            telemetry.Counter(name, help, registry) for name, help in (
                ("repro_tune_pool_tasks_total",
                 "Trials submitted to the pool (re-issues count in "
                 "repro_tune_pool_trial_errors_total{outcome=\"resubmitted\"})."),
                ("repro_tune_pool_records_total", "Records received from workers, by kind."),
                ("repro_tune_pool_trial_errors_total",
                 "Worker-side trial failures, by outcome."),
                ("repro_tune_pool_worker_restarts_total",
                 "Pool workers found dead and replaced."),
                ("repro_tune_pool_ipc_bytes_total",
                 "Pickled bytes moved over the worker pipes (the one transport), "
                 "by direction."),
            )
        )
        self._tasks, self._restarted = submitted.labels(), restarts.labels()
        self._sent, self._received = (
            ipc.labels(direction=direction) for direction in ("to_worker", "from_worker")
        )
        self._task_seconds = telemetry.Histogram(
            "repro_tune_pool_task_seconds", "Real seconds a worker spent on one trial.",
            registry, buckets=TASK_SECONDS_BUCKETS,
        ).labels()
        registry.gauge(
            "repro_tune_pool_workers", "Live processes in the persistent trial pool."
        ).set_function(self, lambda pool: len(pool._workers))
        registry.gauge(
            "repro_tune_pool_queue_depth", "Jobs waiting for an idle worker."
        ).set_function(self, lambda pool: len(pool._pending))

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return bool(self._workers)

    def _spawn_worker(self) -> None:
        parent_end, child_end = self._ctx.Pipe()
        inherited = [parent_end, *(worker.conn for worker in self._workers)]
        proc = self._ctx.Process(
            target=_pool_worker,
            args=(child_end, inherited),
            daemon=True,
        )
        proc.start()
        child_end.close()  # only the worker holds it: its death reads as EOF
        self._workers.append(_Worker(proc, parent_end))

    def start(self) -> "TrialPool":
        if not self._workers:
            for _ in range(self.processes):
                self._spawn_worker()
        return self

    def shutdown(self) -> None:
        """Stop every worker (idempotent)."""
        for worker in self._workers:
            if worker.job is not None:
                worker.proc.terminate()  # nobody will read its trial's records
                continue
            try:
                worker.conn.send(None)
            except OSError:  # already dead
                pass
        for worker in self._workers:
            worker.proc.join(timeout=10.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=5.0)
            worker.conn.close()
        self._workers.clear()
        self._pending.clear()
        self._trials.clear()
        self._datasets.clear()

    def __enter__(self) -> "TrialPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- submission ----------------------------------------------------

    def _dataset_key(self, dataset: ImageDataset) -> int:
        """Name a dataset for :class:`_PoolSpec`, and keep it: it goes out
        with the first job of each of its specs that a worker is handed."""
        self._datasets[id(dataset)] = dataset
        return id(dataset)

    def submit(
        self,
        spec: _PoolSpec,
        trial: Trial,
        init_state: dict[str, np.ndarray] | None,
    ) -> None:
        self.start()
        # The parent may restart an in-flight trial (e.g. a parent-side
        # injected fault): the old run is abandoned like a stopped one.
        self.cancel(trial.trial_id)
        state = self._trials.get(trial.trial_id)
        # a new generation whenever the id was seen before (also: a rerun)
        generation = state.generation + 1 if state is not None else 0
        state = self._trials[trial.trial_id] = _TrialState(generation=generation)
        state.job = (spec, trial, init_state or None, state.generation)
        self._tasks.inc()
        self._pending.append(state.job)
        self._feed()

    def _feed(self) -> None:
        """Hand pending jobs, oldest first, to idle workers."""
        while self._pending:
            worker = next((w for w in self._workers if w.job is None), None)
            if worker is None:
                break
            job = self._pending.popleft()
            spec, trial, _init_state, generation = job
            worker.job = (trial.trial_id, generation)
            dataset, fingerprint = None, spec.fingerprint
            if fingerprint not in worker.holds:
                _cache_put(worker.holds, fingerprint, None)
                dataset = self._datasets[spec.dataset_key]
            data = pickle.dumps((*job, dataset))
            self._sent.inc(len(data))
            try:
                worker.conn.send_bytes(data)
            except OSError:  # died while idle; re-queues the job it now holds
                self._replace(worker)

    def cancel(self, trial_id: int) -> None:
        """Abandon an in-flight trial (``kStop``): its worker stops after
        the current epoch, and what it still sends is of a stale generation
        and is dropped — :meth:`drain` need not wait for the epoch cap."""
        state = self._trials.get(trial_id)
        if state is None or state.job is None:
            return  # never submitted, or already ran to its end
        held = (trial_id, state.generation)
        state.generation += 1
        state.job = None
        state.records.clear()
        self._pending = deque(
            job for job in self._pending if (job[1].trial_id, job[3]) != held
        )
        for worker in self._workers:
            if worker.job == held:
                try:
                    worker.conn.send((held[1], trial_id))
                except OSError:  # dead: _pump replaces it, re-issues nothing
                    pass

    # -- demultiplexing ------------------------------------------------

    def _pump(self) -> None:
        """Route the next record of each worker that has one; replace the dead."""
        handles: list = [w.conn for w in self._workers]
        handles += [w.proc.sentinel for w in self._workers]
        ready = wait(handles, timeout=self.RESULT_TIMEOUT)
        if not ready:
            raise RuntimeError(
                f"no trial results for {self.RESULT_TIMEOUT:.0f}s "
                f"({len(self._workers)} workers live)"
            )
        for worker in list(self._workers):
            if worker.conn in ready:
                try:
                    data = worker.conn.recv_bytes()
                except (EOFError, OSError):  # exited, and its records are all read
                    self._replace(worker)
                else:
                    self._route(worker, data)
            elif worker.proc.sentinel in ready:
                self._replace(worker)

    def _route(self, worker: _Worker, data: bytes) -> None:
        self._received.inc(len(data))
        kind, *fields = pickle.loads(data)
        self._records.inc(kind=kind)
        trial_over = kind != "epoch"  # done or error: the worker is idle again
        if trial_over:
            worker.job = None  # before the handler, which may raise
        getattr(self, f"_on_{kind}")(*fields)
        if trial_over:
            self._feed()

    def _on_epoch(
        self, generation: int, trial_id: int,
        accuracy: float, snapshot: dict[str, np.ndarray] | None, start: float, end: float,
    ) -> None:
        state = self._trials.get(trial_id)
        if state is None or state.generation != generation:
            return  # stale stream
        if state.skip > 0:  # replayed epoch of a resubmitted trial, and its times
            state.skip -= 1
            return
        state.records.append((accuracy, snapshot, start, end))

    def _on_done(
        self, generation: int, trial_id: int,
        final_state: dict[str, np.ndarray], seconds: float,
    ) -> None:
        state = self._trials.get(trial_id)
        if state is None or state.generation != generation:
            return
        state.final_state = final_state
        state.job = None
        self._task_seconds.observe(seconds)

    def _on_cancelled(self, generation: int, trial_id: int) -> None:
        pass  # the worker is idle again; :meth:`cancel` did the forgetting

    def _on_error(self, generation: int, trial_id: int, detail: str) -> None:
        state = self._trials.get(trial_id)
        if state is not None and state.generation != generation:
            return  # a restarted run already superseded this one
        self._resubmit(trial_id, detail)

    def _resubmit(self, trial_id: int, detail: str) -> None:
        """Re-issue a crashed in-flight trial, or surface the failure.

        The re-run is bit-identical, so the fresh worker replays every
        epoch from scratch; ``skip`` is set to the *cumulative* number
        of records the session has consumed this submission (not just
        since the last crash — a trial can crash more than once, and a
        crash can land while an earlier replay is still being skipped),
        so exactly the already-delivered epochs are discarded and no
        duplicates reach the session.  The generation bump makes any
        record from the failed run still sitting in the OS pipe fail
        the stale-generation check instead of eating ``skip`` slots.
        """
        state = self._trials.get(trial_id)
        exhausted = state is None or state.job is None
        if state is not None:
            state.crashes += 1
            exhausted = exhausted or state.crashes >= TRIAL_ATTEMPTS
        self._trial_errors.inc(outcome="raised" if exhausted else "resubmitted")
        if exhausted:
            raise RuntimeError(f"trial {trial_id} failed in worker: {detail}")
        state.generation += 1
        state.records.clear()  # unconsumed buffers will be replayed
        state.skip = state.consumed
        state.job = state.job[:-1] + (state.generation,)
        self._pending.append(state.job)
        self._feed()

    def _replace(self, worker: _Worker) -> None:
        """Swap a dead worker for a fresh one; re-issue the trial it held."""
        self._workers.remove(worker)
        worker.conn.close()
        worker.proc.join(timeout=5.0)
        self._restarted.inc()
        self._spawn_worker()
        if worker.job is not None:
            trial_id, generation = worker.job
            state = self._trials.get(trial_id)
            if state is not None and state.generation == generation:
                self._resubmit(trial_id, f"worker pid {worker.proc.pid} died")

    # -- executor-facing waits -----------------------------------------

    def await_epoch(self, trial_id: int) -> tuple[float, dict | None, float, float]:
        state = self._trials.setdefault(trial_id, _TrialState())
        while not state.records:
            self._pump()
        state.consumed += 1  # delivered epochs: skipped on any replay
        return state.records.popleft()

    def await_done(self, trial_id: int) -> dict[str, np.ndarray]:
        state = self._trials.setdefault(trial_id, _TrialState())
        while state.final_state is None:
            self._pump()
        return state.final_state

    def drain(self) -> None:
        """Wait until every worker is idle (end-of-study barrier).

        Workers free-run their trials to completion, so reading on until
        nothing is queued or running (and then dropping the per-trial
        buffers) leaves the pool spotless for the next study — which
        may legitimately reuse the same trial ids.
        """
        while self._pending or any(w.job is not None for w in self._workers):
            self._pump()
        self._trials.clear()


class _PoolSession:
    """Session proxy replaying records streamed from pool workers."""

    def __init__(self, pool: TrialPool, trial: Trial):
        self._pool = pool
        self._trial_id = trial.trial_id
        self.epochs = 0
        self.best_performance = 0.0
        self._state: dict[str, np.ndarray] | None = None

    def run_epoch(self) -> float:
        """The next epoch's accuracy; its child-side span is recorded
        under the caller's open span (a worker's ``tune.epoch``)."""
        accuracy, state, start, end = self._pool.await_epoch(self._trial_id)
        telemetry.get_tracer().record("tune.pool.epoch", start, end, trial_id=self._trial_id)
        self.epochs += 1
        if state is not None:
            self._state = state
        self.best_performance = max(self.best_performance, accuracy)
        return accuracy

    def state_dict(self) -> dict[str, np.ndarray]:
        if self._state is not None:
            return self._state
        # Snapshots off: the worker applies the same stop rule, so its
        # final state is exactly the parent's stop point.
        return self._pool.await_done(self._trial_id)

    def cancel(self) -> None:
        """The worker abandoned this trial; the last snapshot stays readable."""
        self._pool.cancel(self._trial_id)


class PoolTrialExecutor:
    """A :class:`TrainerBackend` running trials on a :class:`TrialPool`.

    Binds one study's :class:`RealTrainer` configuration to a pool
    (owned or shared): every ``start()`` becomes one pipe message, which
    carries the dataset only to a worker that does not hold it.  When
    constructed without an explicit pool it creates one sized
    ``processes`` and owns its lifecycle; pass ``pool=`` to reuse
    workers across studies.
    ``epoch_cost`` (the simulated-time model) delegates to the wrapped
    trainer, so reports land at the same simulated instants as a
    sequential run.
    """

    def __init__(
        self,
        trainer: RealTrainer,
        conf: HyperConf,
        pool: TrialPool | None = None,
        processes: int | None = None,
    ):
        if not isinstance(trainer, RealTrainer):
            raise ConfigurationError(
                f"PoolTrialExecutor wraps a RealTrainer, got {type(trainer).__name__}"
            )
        self.trainer = trainer
        self.conf = conf
        self.pool = pool if pool is not None else TrialPool(processes=processes)
        self.owns_pool = pool is None

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "PoolTrialExecutor":
        self.pool.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.finish_study(drain=exc_info[0] is None)

    def finish_study(self, drain: bool = True) -> None:
        """End-of-study hook: drain records; shut down an owned pool."""
        if self.pool.running and drain:
            self.pool.drain()
        if self.owns_pool:
            self.pool.shutdown()

    # -- TrainerBackend protocol ---------------------------------------

    def _build_spec(self) -> _PoolSpec:
        # Built (and the dataset registered) per hand-over, never cached:
        # a pool forgets its datasets when it shuts down.
        return _PoolSpec(
            dataset_key=self.pool._dataset_key(self.trainer.dataset),
            builder=self.trainer.builder,
            batch_size=self.trainer.batch_size,
            seconds_per_epoch=self.trainer.seconds_per_epoch,
            use_augmentation=self.trainer.use_augmentation,
            arch_knobs=self.trainer.arch_knobs,
            seed=self.trainer.seed,
            conf=self.conf,
        )

    def start(
        self, trial: Trial, init_state: dict[str, np.ndarray] | None
    ) -> _PoolSession:
        self.pool.submit(self._build_spec(), trial, init_state)
        return _PoolSession(self.pool, trial)

    def epoch_cost(self, trial: Trial) -> float:
        return self.trainer.epoch_cost(trial)


def run_study_parallel(
    master: StudyMaster,
    workers: list[TuneWorker],
    processes: int | None = None,
    pool: TrialPool | None = None,
) -> StudyReport:
    """:func:`run_study`, with real epoch work spread over processes.

    The workers' :class:`RealTrainer` backend is swapped for a
    :class:`PoolTrialExecutor` for the duration of the run (and
    restored afterwards). Master/worker messages, simulated time and
    the resulting :class:`StudyReport` are identical to
    :func:`run_study` for a fixed seed; only real wall-clock shrinks.

    Pass an already-started :class:`TrialPool` via ``pool=`` to reuse
    its workers (and their cached trainers) across consecutive studies;
    otherwise a pool of ``processes`` workers (default: one per study
    worker, capped by the CPU count) lives for this one study; a pool
    of one would be fork + IPC for no parallelism and runs in-process.
    """
    if not workers:
        raise ConfigurationError("run_study_parallel needs at least one worker")
    if pool is not None and not isinstance(pool, TrialPool):
        raise ConfigurationError(f"pool must be a TrialPool, got {type(pool).__name__}")
    if processes is None:
        processes = max(1, min(len(workers), os.cpu_count() or 1))
    if pool is None and processes == 1:
        return run_study(master, workers)
    base_backends = [worker.backend for worker in workers]
    executor = PoolTrialExecutor(
        base_backends[0], conf=workers[0].conf, pool=pool, processes=processes
    )
    for worker in workers:
        worker.backend = executor
    try:
        with executor:
            return run_study(master, workers)
    finally:
        for worker, backend in zip(workers, base_backends):
            worker.backend = backend
