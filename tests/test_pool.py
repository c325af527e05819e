"""Persistent trial pool: lifecycle, crash recovery, dataset shipping.

The determinism contract (pool report == sequential report, bit for
bit) is covered in ``test_parallel_study.py``; this module exercises
the pool subsystem itself — reuse across studies, trials overlapping
across workers, worker-crash resubmission without duplicate epochs,
dead-worker replacement (idle and mid-trial), and the one pipe per
worker carrying each dataset to exactly the workers that lack it.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import chaos, telemetry
from repro.chaos import FaultKind, FaultPlan, FaultRule
from repro.core.tune import (
    CoStudy,
    HyperConf,
    PoolTrialExecutor,
    RandomSearchAdvisor,
    RealTrainer,
    StudyMaster,
    Trial,
    TrialPool,
    make_workers,
    run_study,
    run_study_parallel,
)
from repro.core.tune.hyperspace import HyperSpace
from repro.data import make_image_classification
from repro.exceptions import ConfigurationError
from repro.paramserver import ParameterServer
from repro.zoo.builders import build_mlp


def tiny_space() -> HyperSpace:
    space = HyperSpace()
    space.add_range_knob("lr", "float", 0.01, 0.2, log_scale=True)
    space.add_range_knob("momentum", "float", 0.0, 0.9)
    return space


def make_study(tiny_dataset, seed: int = 3, max_trials: int = 4, max_epochs: int = 2):
    conf = HyperConf(
        max_trials=max_trials, max_epochs_per_trial=max_epochs,
        early_stop_patience=2, delta=0.005,
    )
    param_server = ParameterServer()
    advisor = RandomSearchAdvisor(tiny_space(), rng=np.random.default_rng(seed))
    master = StudyMaster("pool", conf, advisor, param_server)
    backend = RealTrainer(
        tiny_dataset, build_mlp, batch_size=16, use_augmentation=False, seed=11
    )
    workers = make_workers(master, backend, param_server, conf, num_workers=2)
    return master, workers


def report_fingerprint(report):
    return [
        (e.index, round(e.performance, 10), e.epochs, e.total_epochs,
         round(e.best_so_far, 10), e.time, e.init_kind)
        for e in report.history
    ]


def wait_until_sleeping(pid: int, timeout: float = 10.0) -> None:
    """Block until the process is asleep in a system call (Linux).

    A pool worker that holds no job and is asleep can only be blocked
    reading its job pipe: that is the provably idle state.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with open(f"/proc/{pid}/stat") as handle:
            if handle.read().rsplit(")", 1)[1].split()[0] == "S":
                return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} never went to sleep")


def running(pid: int) -> bool:
    """Whether the process still executes (a zombie does not) (Linux)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def bytes_to_workers() -> float:
    return telemetry.get_registry().counter(
        "repro_tune_pool_ipc_bytes_total"
    ).value(direction="to_worker")


def dataset_nbytes(dataset) -> int:
    return sum(x.nbytes + y.nbytes for x, y in dataset.splits().values())


# ----------------------------------------------------------------------
# pool lifecycle
# ----------------------------------------------------------------------


class TestPoolLifecycle:
    def test_reuse_across_studies_matches_fresh_pools(self, tiny_dataset):
        master, workers = make_study(tiny_dataset)
        sequential = report_fingerprint(run_study(master, workers))

        with TrialPool(processes=2) as pool:
            master, workers = make_study(tiny_dataset)
            first = run_study_parallel(master, workers, pool=pool)
            master, workers = make_study(tiny_dataset)
            second = run_study_parallel(master, workers, pool=pool)

        master, workers = make_study(tiny_dataset)
        fresh = run_study_parallel(master, workers, processes=2)

        assert report_fingerprint(first) == sequential
        assert report_fingerprint(second) == sequential
        assert report_fingerprint(fresh) == sequential
        # every study numbers its own trials, reused pool or not
        for report in (first, second, fresh):
            assert sorted(r.trial.trial_id for r in report.results) == [1, 2, 3, 4]

    def test_owned_pool_executor_runs_a_second_study(self, tiny_dataset):
        """An executor that owns its pool shuts it down after each study;
        the pool forgets its datasets then, so the executor must hand the
        dataset over again (it used to die in ``_feed`` with a KeyError)."""

        def study_through(executor):
            master, workers = make_study(tiny_dataset, max_trials=2)
            for worker in workers:
                worker.backend = executor
            with executor:
                return report_fingerprint(run_study(master, workers))

        def executor():
            trainer = RealTrainer(tiny_dataset, build_mlp, batch_size=16,
                                  use_augmentation=False, seed=11)
            return PoolTrialExecutor(trainer, HyperConf(), processes=1)

        reused = executor()
        assert reused.owns_pool
        rounds = [study_through(reused), study_through(reused)]
        assert not reused.pool.running
        assert rounds == [study_through(executor()), study_through(executor())]

    def test_shutdown_is_idempotent(self, tiny_dataset):
        pool = TrialPool(processes=1)
        master, workers = make_study(tiny_dataset, max_trials=2)
        run_study_parallel(master, workers, pool=pool)
        pool.shutdown()
        pool.shutdown()
        assert not pool.running

    def test_trials_overlap_across_workers(self, tiny_dataset, monkeypatch):
        """Epoch records are flushed one by one, so the study's second
        worker gets its trial onto the pool as soon as the first trial's
        first epoch is back — not after that trial has finished.  Read
        off the parent's own record counter: no timing involved."""
        master, workers = make_study(tiny_dataset, max_trials=2, max_epochs=4)
        records = telemetry.get_registry().counter(
            "repro_tune_pool_records_total",
            "Records received from workers, by kind.",
        )
        pool = TrialPool(processes=2)
        submit = pool.submit
        received_at_submit = []

        def spying_submit(*args):
            received_at_submit.append(
                (records.value(kind="epoch"), records.value(kind="done"))
            )
            submit(*args)

        monkeypatch.setattr(pool, "submit", spying_submit)
        with pool:
            report = run_study_parallel(master, workers, pool=pool)
        assert all(entry.epochs > 1 for entry in report.history)
        # trial 2 went out after one epoch record of trial 1, before its done
        assert received_at_submit == [(0, 0), (1, 0)]
        assert records.value(kind="epoch") == report.total_epochs
        assert records.value(kind="done") == 2

    def test_executor_requires_real_trainer(self):
        with pytest.raises(ConfigurationError):
            PoolTrialExecutor(object(), HyperConf())

    def test_one_process_runs_in_this_one(self, tiny_dataset, monkeypatch):
        """A pool of one is fork + IPC for zero parallelism."""
        master, workers = make_study(tiny_dataset)
        expected = report_fingerprint(run_study(master, workers))

        def no_pool(self):
            raise AssertionError("processes=1 must not start a pool")

        monkeypatch.setattr(TrialPool, "start", no_pool)
        master, workers = make_study(tiny_dataset)
        report = run_study_parallel(master, workers, processes=1)
        assert report_fingerprint(report) == expected

    def test_workers_exit_when_the_parent_is_killed(self):
        """Each worker holds only its own pipe, so a SIGKILLed parent
        reads as EOF on every job pipe — no worker sleeps on forever
        because a sibling inherited the parent's end."""
        script = (
            "import time\n"
            "from repro.core.tune import TrialPool\n"
            "pool = TrialPool(processes=2).start()\n"
            "print(*(w.proc.pid for w in pool._workers), flush=True)\n"
            "time.sleep(120)\n"
        )
        parent = subprocess.Popen(
            [sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            start_new_session=True,
        )
        try:
            pids = [int(pid) for pid in parent.stdout.readline().split()]
            assert len(pids) == 2
            for pid in pids:
                wait_until_sleeping(pid)  # idle: blocked reading its job pipe
        finally:
            parent.kill()
            parent.wait(timeout=10)
            parent.stdout.close()
        deadline = time.monotonic() + 10.0
        while any(running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if running(pid)] == []


# ----------------------------------------------------------------------
# datasets ride the worker's own pipe
# ----------------------------------------------------------------------


class TestDatasetShipping:
    def test_pool_study_starts_no_tracker_and_touches_no_shm(self):
        """The pipe is the only transport: dataset, warm-start state and
        final states through a pool bring up no ``multiprocessing``
        resource tracker and make no ``/dev/shm`` entry (a fresh
        interpreter, so nothing else can have)."""
        script = (
            "import os\n"
            "from multiprocessing import resource_tracker\n"
            "from repro.core.tune import (HyperConf, PoolTrialExecutor,\n"
            "    RealTrainer, Trial, TrialPool)\n"
            "from repro.data import make_image_classification\n"
            "from repro.zoo.builders import build_mlp\n"
            "def shm():\n"
            "    return sorted(os.listdir('/dev/shm')) if os.path.isdir('/dev/shm') else []\n"
            "before = shm()\n"
            "dataset = make_image_classification(name='t', num_classes=3,\n"
            "    image_shape=(3, 8, 8), train_per_class=16, val_per_class=6,\n"
            "    test_per_class=6, difficulty=0.3, seed=7)\n"
            "backend = RealTrainer(dataset, build_mlp, batch_size=16,\n"
            "    use_augmentation=False, seed=11)\n"
            "conf = HyperConf(max_trials=2, max_epochs_per_trial=2)\n"
            "state = None\n"
            "with TrialPool(processes=2) as pool:\n"
            "    executor = PoolTrialExecutor(backend, conf, pool=pool)\n"
            "    for trial_id in (1, 2):  # the second warm-starts from the first\n"
            "        session = executor.start(\n"
            "            Trial(params={'lr': 0.05}, trial_id=trial_id), state)\n"
            "        accuracies = [session.run_epoch() for _ in range(2)]\n"
            "        state = session.state_dict()\n"
            "    executor.finish_study()\n"
            "    during = shm()\n"
            "assert len(accuracies) == 2 and state, (accuracies, state)\n"
            "assert resource_tracker._resource_tracker._pid is None, 'tracker'\n"
            "assert during == before == shm(), (before, during, shm())\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    def test_idle_worker_killed_between_studies_is_sent_the_dataset_again(
        self, tiny_dataset, monkeypatch
    ):
        """What the parent recorded of a worker's trainer cache dies
        with the worker: the replacement starts knowing nothing and is
        handed the dataset with its first job."""
        monkeypatch.setattr(TrialPool, "RESULT_TIMEOUT", 20.0)
        master, workers = make_study(tiny_dataset)
        sequential = report_fingerprint(run_study(master, workers))

        with TrialPool(processes=1) as pool:
            master, workers = make_study(tiny_dataset)
            first = run_study_parallel(master, workers, pool=pool)
            sent_first = bytes_to_workers()
            victim = pool._workers[0].proc
            wait_until_sleeping(victim.pid)
            victim.kill()
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            master, workers = make_study(tiny_dataset)
            second = run_study_parallel(master, workers, pool=pool)
            assert pool._restarted.count == 1
        assert report_fingerprint(first) == sequential
        assert report_fingerprint(second) == sequential
        # each study put the dataset on the pipe once: a live worker
        # would not have been sent it a second time
        assert dataset_nbytes(tiny_dataset) < sent_first < 2 * dataset_nbytes(tiny_dataset)
        assert bytes_to_workers() - sent_first > dataset_nbytes(tiny_dataset)

    def test_second_study_over_a_different_dataset_trains_on_the_new_data(
        self, tiny_dataset
    ):
        other = make_image_classification(
            name="other", num_classes=3, image_shape=(3, 8, 8),
            train_per_class=16, val_per_class=6, test_per_class=6,
            difficulty=0.3, seed=8,
        )
        expected = [
            report_fingerprint(run_study(*make_study(dataset)))
            for dataset in (tiny_dataset, other)
        ]
        assert expected[0] != expected[1]
        with TrialPool(processes=2) as pool:
            observed = [
                report_fingerprint(
                    run_study_parallel(*make_study(dataset), pool=pool)
                )
                for dataset in (tiny_dataset, other)
            ]
        assert observed == expected

    def test_spec_evicted_from_the_trainer_cache_still_reproduces(self, tiny_dataset):
        """Five specs through one worker overflow its trainer cache of
        four; the parent knows the first was dropped and sends its
        dataset again rather than naming a trainer the worker no longer
        has."""
        conf = HyperConf(max_trials=1, max_epochs_per_trial=2)
        params = {"lr": 0.05, "momentum": 0.5}

        def backend(seed):  # the seed is part of the spec's fingerprint
            return RealTrainer(tiny_dataset, build_mlp, batch_size=16,
                               use_augmentation=False, seed=seed)

        def epochs(trainer, trial_id):
            session = trainer.start(Trial(params=params, trial_id=trial_id), None)
            return [session.run_epoch() for _ in range(2)]

        seeds = [0, 1, 2, 3, 4, 0]
        expected = [epochs(backend(seed), n) for n, seed in enumerate(seeds)]
        observed, sent = [], []
        with TrialPool(processes=1) as pool:
            for n, seed in enumerate(seeds):
                before = bytes_to_workers()
                executor = PoolTrialExecutor(backend(seed), conf, pool=pool)
                observed.append(epochs(executor, n))
                executor.finish_study()
                sent.append(bytes_to_workers() - before)
        assert observed == expected
        assert min(sent) > dataset_nbytes(tiny_dataset)  # each job carried it


# ----------------------------------------------------------------------
# kStop reaches the pool
# ----------------------------------------------------------------------


class TestCancel:
    def test_cancelled_child_stops_and_the_pool_stays_usable(self, tiny_dataset):
        """The child looks for a cancel after every epoch it sends, so an
        abandoned trial costs at most the epoch in progress — not the
        epoch cap :meth:`TrialPool.drain` used to wait for."""
        cap = 1_000_000
        conf = HyperConf(max_trials=1, max_epochs_per_trial=cap)
        backend = RealTrainer(
            tiny_dataset, build_mlp, batch_size=16, use_augmentation=False, seed=11
        )
        records = telemetry.get_registry().counter(
            "repro_tune_pool_records_total",
            "Records received from workers, by kind.",
        )
        params = {"lr": 0.05, "momentum": 0.5}
        with TrialPool(processes=1) as pool:
            executor = PoolTrialExecutor(backend, conf, pool=pool)
            session = executor.start(
                Trial(params=params, trial_id=1, local_early_stop=False), None
            )
            session.run_epoch()
            snapshot = session.state_dict()
            session.cancel()
            pool.drain()  # returns: the child did not run to the cap
            assert records.value(kind="cancelled") == 1
            assert records.value(kind="epoch") < cap
            assert session.state_dict() is snapshot  # kPut after kStop still works
            session.cancel()  # a second cancel (or one after the end) is a no-op
            # the worker is idle again and takes the next trial
            again = executor.start(Trial(params=params, trial_id=2, max_epochs=2), None)
            assert [again.run_epoch() for _ in range(2)]
            assert again.state_dict() is not None
            executor.finish_study()

    def test_costudy_kstop_cancels_children_and_report_is_bit_identical(
        self, tiny_dataset
    ):
        """A CoStudy whose master-side patience fires long before the
        epoch cap: every kStop becomes a cancel, the children stop, and
        the report still equals the sequential run's."""
        cap, trials = 400, 4

        def study():
            conf = HyperConf(max_trials=trials, max_epochs_per_trial=cap,
                             early_stop_patience=1, delta=0.005)
            ps = ParameterServer()
            advisor = RandomSearchAdvisor(tiny_space(), rng=np.random.default_rng(3))
            master = StudyMaster("stop", conf, advisor, ps,
                                 scheduler=CoStudy(rng=np.random.default_rng(10)))
            backend = RealTrainer(tiny_dataset, build_mlp, batch_size=16,
                                  use_augmentation=False, seed=11)
            return master, make_workers(master, backend, ps, conf, num_workers=2)

        sequential = run_study(*study())
        stopped = sum(r.trial.status.value == "stopped" for r in sequential.results)
        assert stopped >= trials and sequential.total_epochs < trials * cap // 10
        records = telemetry.get_registry().counter(
            "repro_tune_pool_records_total",
            "Records received from workers, by kind.",
        )
        parallel = run_study_parallel(*study(), processes=2)
        assert report_fingerprint(parallel) == report_fingerprint(sequential)
        assert records.value(kind="cancelled") == stopped
        assert records.value(kind="done") == 0
        # children ran ahead of the simulated-time parent, but nowhere
        # near the cap they used to free-run to
        assert records.value(kind="epoch") < len(parallel.results) * cap // 2


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------


class TestCrashRecovery:
    def test_injected_crash_resubmits_without_duplicate_epochs(self, tiny_dataset):
        """A seeded ``tune.pool.trial`` fault kills a trial mid-flight in
        the worker; the pool re-issues it and discards the replayed
        epochs, so the report still matches the sequential run exactly."""
        master, workers = make_study(tiny_dataset)
        sequential = report_fingerprint(run_study(master, workers))

        plan = FaultPlan(
            [FaultRule("tune.pool.trial", FaultKind.EXCEPTION,
                       after=1, max_faults=1)],
            seed=0,
        )
        master, workers = make_study(tiny_dataset)
        with chaos.active(plan):
            report = run_study_parallel(master, workers, processes=2)

        assert report_fingerprint(report) == sequential
        errors = telemetry.get_registry().counter(
            "repro_tune_pool_trial_errors_total",
            "Worker-side trial failures, by outcome.",
        )
        assert errors.value(outcome="resubmitted") >= 1
        assert errors.value(outcome="raised") == 0

    def test_dead_worker_replaced_and_trial_reissued(self, tiny_dataset, monkeypatch):
        """Hard-killing an *idle* pool process must not lose the study:
        the worker sleeps in ``recv`` on its own pipe, so its death takes
        nothing shared with it; the pool replaces it and the study still
        matches the sequential run, with exactly one restart."""
        # a regression (replacement never served) fails in seconds
        monkeypatch.setattr(TrialPool, "RESULT_TIMEOUT", 20.0)
        master, workers = make_study(tiny_dataset)
        sequential = report_fingerprint(run_study(master, workers))

        master, workers = make_study(tiny_dataset)
        pool = TrialPool(processes=1)
        with pool:
            victim = pool._workers[0].proc
            wait_until_sleeping(victim.pid)
            victim.kill()
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            report = run_study_parallel(master, workers, pool=pool)
            assert pool._restarted.count == 1
            survivors = [worker.proc for worker in pool._workers]
        assert report_fingerprint(report) == sequential
        restarts = telemetry.get_registry().counter(
            "repro_tune_pool_worker_restarts_total",
            "Pool workers found dead and replaced.",
        )
        assert restarts.value() == 1
        assert not any(proc.is_alive() for proc in survivors)

    def test_worker_killed_mid_trial_is_replaced_without_duplicate_epochs(
        self, tiny_dataset, monkeypatch
    ):
        """A worker dying *while training* loses only its own pipe: the
        parent knows which trial it held, re-issues exactly that one,
        and discards the epochs the session had already consumed."""
        monkeypatch.setattr(TrialPool, "RESULT_TIMEOUT", 20.0)
        master, workers = make_study(tiny_dataset, max_epochs=5)
        sequential = report_fingerprint(run_study(master, workers))

        master, workers = make_study(tiny_dataset, max_epochs=5)
        pool = TrialPool(processes=1)
        await_epoch = pool.await_epoch
        delivered = []

        def kill_after_first_epoch(trial_id):
            record = await_epoch(trial_id)
            delivered.append(trial_id)
            if len(delivered) == 1:  # trial 1 has at least two epochs to go
                pool._workers[0].proc.kill()
            return record

        monkeypatch.setattr(pool, "await_epoch", kill_after_first_epoch)
        with pool:
            report = run_study_parallel(master, workers, pool=pool)
            assert pool._restarted.count == 1
        assert report_fingerprint(report) == sequential
        errors = telemetry.get_registry().counter(
            "repro_tune_pool_trial_errors_total",
            "Worker-side trial failures, by outcome.",
        )
        assert errors.value(outcome="resubmitted") == 1  # the held trial, only

    def test_second_crash_of_same_trial_keeps_cumulative_skip(self, tiny_dataset):
        """Two crashes of the *same* trial: the replay skip count must
        cover every epoch the session has consumed since submission,
        not just those since the previous crash — including a crash
        that lands while an earlier replay is still being skipped —
        or duplicate epochs silently corrupt the study."""
        master, workers = make_study(tiny_dataset, max_epochs=5)
        sequential = report_fingerprint(run_study(master, workers))

        # fires 1-2 pass, fires 3-4 fault: the first crash interrupts
        # trial 1 mid-stream, the second kills its replay immediately.
        plan = FaultPlan(
            [FaultRule("tune.pool.trial", FaultKind.EXCEPTION,
                       after=2, max_faults=2)],
            seed=0,
        )
        master, workers = make_study(tiny_dataset, max_epochs=5)
        with chaos.active(plan), TrialPool(processes=1) as pool:
            report = run_study_parallel(master, workers, pool=pool)

        assert report_fingerprint(report) == sequential
        errors = telemetry.get_registry().counter(
            "repro_tune_pool_trial_errors_total",
            "Worker-side trial failures, by outcome.",
        )
        assert errors.value(outcome="resubmitted") >= 2
        assert errors.value(outcome="raised") == 0

    def test_crash_on_warm_started_trial_recovers(self, tiny_dataset):
        """A crashed warm-started trial is re-dispatched with the init
        state the parent kept on the job, pickled again, so the re-run
        starts from the same parameters as the run that crashed."""
        conf = HyperConf(max_trials=1, max_epochs_per_trial=3, delta=0.005)

        def backend():
            return RealTrainer(
                tiny_dataset, build_mlp, batch_size=16,
                use_augmentation=False, seed=11,
            )

        params = {"lr": 0.05, "momentum": 0.5}
        probe = backend().start(Trial(params=params, trial_id=1), None)
        probe.run_epoch()
        init_state = probe.state_dict()

        reference = backend().start(Trial(params=params, trial_id=1), init_state)
        expected = [reference.run_epoch() for _ in range(3)]

        plan = FaultPlan(
            [FaultRule("tune.pool.trial", FaultKind.EXCEPTION,
                       after=1, max_faults=1)],
            seed=0,
        )
        pool = TrialPool(processes=1)
        with chaos.active(plan), pool:
            executor = PoolTrialExecutor(backend(), conf, pool=pool)
            session = executor.start(Trial(params=params, trial_id=1), init_state)
            observed = [session.run_epoch() for _ in range(3)]
            executor.finish_study()
        assert observed == expected

    def test_exhausted_retries_surface_the_failure(self, tiny_dataset):
        plan = FaultPlan(
            [FaultRule("tune.pool.trial", FaultKind.EXCEPTION)], seed=0
        )
        master, workers = make_study(tiny_dataset, max_trials=1)
        with chaos.active(plan):
            with pytest.raises(RuntimeError, match="failed in worker"):
                run_study_parallel(master, workers, processes=2)


# ----------------------------------------------------------------------
# the study's span tree reaches into the pool
# ----------------------------------------------------------------------


class TestHomedEpochSpans:
    """Each epoch a pool child ran comes home as one ``tune.pool.epoch``
    span under the ``tune.epoch`` span of the worker that consumed it."""

    @staticmethod
    def assert_one_homed_span_per_consumed_epoch(report) -> None:
        spans = telemetry.get_tracer().spans
        (root,) = [s for s in spans if s.name == "run_study"]
        epochs = [s for s in spans if s.name == "tune.epoch"]
        homed = [s for s in spans if s.name == "tune.pool.epoch"]
        assert len(epochs) == len(homed) == sum(r.epochs for r in report.results)
        assert sorted(id(s.parent) for s in homed) == sorted(map(id, epochs))
        assert all(s.parent is root for s in epochs)
        assert {s.request for s in epochs + homed} == {root.request}
        assert all(s.tags["trial_id"] == s.parent.tags["trial_id"] for s in homed)
        # the child's clock is the parent's: its epochs lie inside the run
        assert all(root.start <= s.start <= s.end <= s.parent.end for s in homed)

    def test_every_consumed_epoch_is_homed_once(self, tiny_dataset):
        master, workers = make_study(tiny_dataset)
        report = run_study_parallel(master, workers, processes=2)
        self.assert_one_homed_span_per_consumed_epoch(report)

    def test_replayed_epochs_are_not_homed_twice(self, tiny_dataset):
        plan = FaultPlan(
            [FaultRule("tune.pool.trial", FaultKind.EXCEPTION, after=1, max_faults=1)],
            seed=0,
        )
        master, workers = make_study(tiny_dataset)
        with chaos.active(plan):
            report = run_study_parallel(master, workers, processes=2)
        errors = telemetry.get_registry().counter("repro_tune_pool_trial_errors_total")
        assert errors.value(outcome="resubmitted") >= 1
        self.assert_one_homed_span_per_consumed_epoch(report)
