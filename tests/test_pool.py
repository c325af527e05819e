"""Persistent trial pool: lifecycle, crash recovery, shm hygiene.

The determinism contract (pool report == sequential report, bit for
bit) is covered in ``test_parallel_study.py``; this module exercises
the pool subsystem itself — reuse across studies, trials overlapping
across workers, worker-crash resubmission without duplicate epochs,
dead-worker replacement (idle and mid-trial), and shared-memory
segment cleanup on every exit path.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import repro.core.tune.trial as trial_module
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
from repro.exceptions import ConfigurationError
from repro.paramserver import ParameterServer
from repro.utils.shm import SHM_DIR, ShmArena
from repro.zoo.builders import build_mlp


def tiny_space() -> HyperSpace:
    space = HyperSpace()
    space.add_range_knob("lr", "float", 0.01, 0.2, log_scale=True)
    space.add_range_knob("momentum", "float", 0.0, 0.9)
    return space


def make_study(tiny_dataset, seed: int = 3, max_trials: int = 4, max_epochs: int = 2):
    trial_module._trial_ids = itertools.count(1)
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


def leaked_segments(prefix: str) -> list[str]:
    if not os.path.isdir(SHM_DIR):
        return []
    return [e for e in os.listdir(SHM_DIR) if e.startswith(prefix)]


# ----------------------------------------------------------------------
# ShmArena
# ----------------------------------------------------------------------


class TestShmArena:
    def test_share_view_roundtrip(self, rng):
        array = rng.standard_normal((32, 7)).astype(np.float32)
        with ShmArena() as arena:
            tensor = arena.share(array)
            view = arena.view(tensor)
            np.testing.assert_array_equal(view, array)
            assert not view.flags.writeable  # zero-copy views are read-only
            assert tensor.nbytes == array.nbytes
            assert tensor.exists()

    def test_release_unlinks_owned_segment(self, rng):
        arena = ShmArena()
        tensor = arena.share(rng.standard_normal(128))
        assert tensor.exists()
        arena.release(tensor)
        assert not tensor.exists()
        assert arena.live_segments == 0
        arena.close()

    def test_publish_adopt_transfers_ownership(self, rng):
        array = rng.standard_normal((8, 8))
        producer = ShmArena()
        consumer = ShmArena(prefix=producer.prefix)
        tensor = producer.publish(array)
        assert tensor.exists()  # alive with no local mapping on either side
        adopted = consumer.adopt(tensor)
        np.testing.assert_array_equal(adopted, array)
        consumer.release(tensor)
        assert not tensor.exists()  # the adopter unlinks
        producer.close()
        consumer.close()

    def test_sweep_collects_orphans(self, rng):
        arena = ShmArena()
        orphan = arena.publish(rng.standard_normal(64))  # nobody adopts
        assert orphan.exists()
        assert arena.sweep() == 1
        assert not orphan.exists()
        assert leaked_segments(arena.prefix) == []
        arena.close()

    def test_close_unlinks_everything(self, rng):
        arena = ShmArena()
        tensors = [arena.share(rng.standard_normal(16)) for _ in range(3)]
        arena.close()
        assert all(not t.exists() for t in tensors)
        assert leaked_segments(arena.prefix) == []


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
        deadline = time.monotonic() + 10.0
        while any(running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [pid for pid in pids if running(pid)] == []


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
                Trial(params=params, local_early_stop=False), None
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
            again = executor.start(Trial(params=params, max_epochs=2), None)
            assert [again.run_epoch() for _ in range(2)]
            assert again.state_dict() is not None
            executor.finish_study()
        assert leaked_segments(pool.arena.prefix) == []

    def test_costudy_kstop_cancels_children_and_report_is_bit_identical(
        self, tiny_dataset
    ):
        """A CoStudy whose master-side patience fires long before the
        epoch cap: every kStop becomes a cancel, the children stop, and
        the report still equals the sequential run's."""
        cap, trials = 400, 4

        def study():
            trial_module._trial_ids = itertools.count(1)
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
            assert pool.worker_restarts == 1
            survivors = [worker.proc for worker in pool._workers]
        assert report_fingerprint(report) == sequential
        restarts = telemetry.get_registry().counter(
            "repro_tune_pool_worker_restarts_total",
            "Pool workers found dead and replaced.",
        )
        assert restarts.value() == 1
        assert not any(proc.is_alive() for proc in survivors)
        assert leaked_segments(pool.arena.prefix) == []

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
            assert pool.worker_restarts == 1
        assert report_fingerprint(report) == sequential
        errors = telemetry.get_registry().counter(
            "repro_tune_pool_trial_errors_total",
            "Worker-side trial failures, by outcome.",
        )
        assert errors.value(outcome="resubmitted") == 1  # the held trial, only
        assert leaked_segments(pool.arena.prefix) == []

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
        """A crashed warm-started trial is re-dispatched with the same
        init-state handles; materialising them in the first worker must
        not unlink the parent-owned segments, or the replacement run
        dies on attach and the whole study aborts."""
        from repro.core.tune.trial import Trial

        conf = HyperConf(max_trials=1, max_epochs_per_trial=3, delta=0.005)

        def backend():
            return RealTrainer(
                tiny_dataset, build_mlp, batch_size=16,
                use_augmentation=False, seed=11,
            )

        params = {"lr": 0.05, "momentum": 0.5}
        trial_module._trial_ids = itertools.count(1)
        probe = backend().start(Trial(params=params), None)
        probe.run_epoch()
        init_state = probe.state_dict()
        # big enough to travel as shm handles, the case under test
        assert any(a.nbytes >= 4096 for a in init_state.values())

        trial_module._trial_ids = itertools.count(1)
        reference = backend().start(Trial(params=params), init_state)
        expected = [reference.run_epoch() for _ in range(3)]

        plan = FaultPlan(
            [FaultRule("tune.pool.trial", FaultKind.EXCEPTION,
                       after=1, max_faults=1)],
            seed=0,
        )
        trial_module._trial_ids = itertools.count(1)
        pool = TrialPool(processes=1)
        prefix = pool.arena.prefix
        with chaos.active(plan), pool:
            executor = PoolTrialExecutor(backend(), conf, pool=pool)
            session = executor.start(Trial(params=params), init_state)
            observed = [session.run_epoch() for _ in range(3)]
            executor.finish_study()
        assert observed == expected
        assert leaked_segments(prefix) == []

    def test_exhausted_retries_surface_the_failure(self, tiny_dataset):
        plan = FaultPlan(
            [FaultRule("tune.pool.trial", FaultKind.EXCEPTION)], seed=0
        )
        master, workers = make_study(tiny_dataset, max_trials=1)
        with chaos.active(plan):
            with pytest.raises(RuntimeError, match="failed in worker"):
                run_study_parallel(master, workers, processes=2)


# ----------------------------------------------------------------------
# shared-memory hygiene
# ----------------------------------------------------------------------


class TestShmHygiene:
    def test_clean_shutdown_leaves_no_segments(self, tiny_dataset):
        pool = TrialPool(processes=2)
        prefix = pool.arena.prefix
        master, workers = make_study(tiny_dataset)
        with pool:
            run_study_parallel(master, workers, pool=pool)
            assert leaked_segments(prefix)  # dataset lives in shm mid-study
        assert leaked_segments(prefix) == []

    def test_crashy_study_leaves_no_segments(self, tiny_dataset):
        plan = FaultPlan(
            [FaultRule("tune.pool.trial", FaultKind.EXCEPTION,
                       after=1, max_faults=1)],
            seed=0,
        )
        pool = TrialPool(processes=2)
        prefix = pool.arena.prefix
        master, workers = make_study(tiny_dataset)
        with pool, chaos.active(plan):
            run_study_parallel(master, workers, pool=pool)
        assert leaked_segments(prefix) == []

    def test_shutdown_sweeps_dead_worker_segments(self, tiny_dataset):
        """A segment published by a worker that died before the parent
        adopted it is collected by the shutdown sweep."""
        from multiprocessing import shared_memory

        pool = TrialPool(processes=1)
        pool.start()
        stray_name = f"{pool.arena.prefix}-dead-0"
        stray = shared_memory.SharedMemory(create=True, name=stray_name, size=64)
        stray.close()
        assert leaked_segments(pool.arena.prefix)
        pool.shutdown()
        assert leaked_segments(pool.arena.prefix) == []
