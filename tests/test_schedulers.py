"""The one study master under each scheduler, and schedulers composed."""

import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterManager, Node
from repro.cluster.manager import JobKind
from repro.cluster.message import Message, MessageType
from repro.cluster.node import Resources
from repro.core.tune import (
    CoStudy,
    CoStudyMaster,
    HyperConf,
    RandomSearchAdvisor,
    RealTrainer,
    StudyMaster,
    SuccessiveHalving,
    SurrogateTrainer,
    TrialScheduler,
    make_workers,
    run_study,
    run_study_parallel,
    section71_space,
)
from repro.core.tune.distributed import run_cluster_study
from repro.core.tune.trial import InitKind
from repro.paramserver import ParameterServer
from repro.zoo.builders import build_mlp

# ----------------------------------------------------------------------
# (a) one hand-written message sequence, three policies
# ----------------------------------------------------------------------

#: what two workers send, in order: (worker, message type, performance).
SCRIPT = [
    ("w0", "REQUEST", None),
    ("w1", "REQUEST", None),
    ("w0", "PUT", None),  # not a message masters receive: ignored
    ("w0", "REPORT", 0.50),  # beats CoStudy's best (0.0) by more than delta
    ("w0", "REPORT", 0.50),
    ("w0", "REPORT", 0.50),
    ("w0", "REPORT", 0.50),  # second stale epoch: CoStudy's patience is 2
    ("w0", "FINISH", 0.50),
    ("w0", "REQUEST", None),  # halving: rung 0 is handed out, w1 still runs it
    ("w1", "REPORT", 0.40),
    ("w1", "FINISH", 0.40),  # halving: rung 0 complete, trial 1 survives
    ("w1", "REQUEST", None),
    ("w0", "FINISH", 0.60),  # the third and last trial of the budget
    ("w0", "REQUEST", None),
]

T, PUT, STOP, SHUTDOWN = "TRIAL", "PUT", "STOP", "SHUTDOWN"
RANDOM, WARM = InitKind.RANDOM, InitKind.WARM_START

#: per scheduler, the replies to each line of SCRIPT. A TRIAL reply is
#: pinned as (init_kind, init_key, max_epochs, local_early_stop).
EXPECTED = {
    "default": [
        [("w0", T, (RANDOM, None, None, True))],
        [("w1", T, (RANDOM, None, None, True))],
        [],
        [], [], [], [],
        [("w0", PUT, "s/best")],  # kPut on finish if best
        [("w0", T, (RANDOM, None, None, True))],
        [],
        [],  # 0.40 is not the best
        [("w1", T, (RANDOM, None, None, True))],
        [("w0", PUT, "s/best")],
        [("w0", SHUTDOWN, None)],
    ],
    "costudy": [
        [("w0", T, (RANDOM, None, None, False))],  # no checkpoint yet
        [("w1", T, (RANDOM, None, None, False))],
        [],
        [("w0", PUT, "s/best")],  # delta-triggered kPut on report
        [], [],
        [("w0", STOP, None)],  # master-side patience
        [],  # and no kPut on finish
        [("w0", T, (WARM, "s/best", None, False))],  # alpha is 0: warm start
        [],  # 0.40 does not beat 0.50
        [],
        [("w1", T, (WARM, "s/best", None, False))],
        [],
        [("w0", SHUTDOWN, None)],
    ],
    "halving": [
        [("w0", T, (RANDOM, None, 2, False))],  # rung 0: budget 2
        [("w1", T, (RANDOM, None, 2, False))],
        [],
        [], [], [], [],
        [("w0", PUT, "s/trial/1"), ("w0", PUT, "s/best")],
        [],  # rung barrier: parked
        [],
        # per-trial checkpoint, then the barrier opens for parked w0:
        # trial 1 continues from its own key with budget 4
        [("w1", PUT, "s/trial/2"), ("w0", T, (WARM, "s/trial/1", 4, False))],
        [],  # parked again: rung 1 is one trial wide
        # rung 1 complete, no rung 2: parked w1 is released
        [("w0", PUT, "s/trial/3"), ("w0", PUT, "s/best"), ("w1", SHUTDOWN, None)],
        [("w0", SHUTDOWN, None)],
    ],
}


def make_master(kind: str, ps: ParameterServer) -> StudyMaster:
    conf = HyperConf(max_trials=3, max_epochs_per_trial=4, early_stop_patience=2,
                     delta=0.01, alpha0=0.0, alpha_min=0.0)
    advisor = RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(0))
    scheduler = {
        "default": None,
        "costudy": CoStudy(rng=np.random.default_rng(0)),
        "halving": SuccessiveHalving(initial_trials=2, initial_epochs=2, eta=2,
                                     max_rungs=2),
    }[kind]
    return StudyMaster("s", conf, advisor, ps, scheduler=scheduler)


def play(master: StudyMaster, ps: ParameterServer) -> list[list[tuple]]:
    """Feed SCRIPT to the master; obey kPut like a worker would."""
    held = {}
    transcript = []
    for worker, kind, performance in SCRIPT:
        payload = {}
        if kind in ("REPORT", "FINISH"):
            payload = {"p": performance, "trial": held[worker], "epochs": 4}
        master.mailbox.send(Message(MessageType[kind], worker, payload))
        replies = []
        for dest, reply in master.step():
            detail = None
            if reply.type is MessageType.TRIAL:
                trial = held[dest] = reply.payload["trial"]
                detail = (trial.init_kind, trial.init_key, trial.max_epochs,
                          trial.local_early_stop)
            elif reply.type is MessageType.PUT:
                detail = reply.payload["key"]
                ps.put(detail, {"w": np.zeros(1)},
                       performance=reply.payload["performance"])
            replies.append((dest, reply.type.name, detail))
        transcript.append(replies)
    return transcript


@pytest.mark.parametrize("kind", sorted(EXPECTED))
def test_protocol_replies_per_scheduler(kind):
    ps = ParameterServer()
    master = make_master(kind, ps)
    assert play(master, ps) == EXPECTED[kind]
    assert master.done
    assert master.num_finished == 3 and master.total_epochs == 12


def test_costudy_master_is_a_study_master_with_the_costudy_scheduler():
    """The constructor the frozen e2e benchmark imports builds no new class."""
    ps = ParameterServer()
    reference = make_master("costudy", ps)
    master = CoStudyMaster("s", reference.conf, reference.advisor, ps,
                           rng=np.random.default_rng(0))
    assert type(master) is StudyMaster
    assert [type(s) for s in master.schedulers] == [CoStudy]
    assert play(master, ps) == EXPECTED["costudy"]


def test_checkpoint_state_merges_the_schedulers_share():
    ps = ParameterServer()
    plain, co = make_master("default", ps), make_master("costudy", ps)
    assert plain.checkpoint_state() == {
        "num_finished": 0, "total_epochs": 0, "trials_issued": 0}
    assert set(co.checkpoint_state()) == {
        "num_finished", "total_epochs", "trials_issued",
        "best_p", "random_inits", "warm_inits"}


# ----------------------------------------------------------------------
# (b) CoStudy x successive halving: a configuration, not a class
# ----------------------------------------------------------------------


def composed(backend, driver, seed=0, patience=10_000):
    halving = SuccessiveHalving(initial_trials=8, initial_epochs=2, eta=2,
                                max_rungs=3)
    conf = dataclasses.replace(
        halving.conf(), alpha0=0.6, alpha_decay=0.6, alpha_min=0.0, delta=0.005,
        early_stop_patience=patience,
    )
    ps = ParameterServer()
    advisor = RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(seed))
    costudy = CoStudy(rng=np.random.default_rng(seed + 7))
    master = StudyMaster("mix", conf, advisor, ps, scheduler=[costudy, halving])
    if driver == "cluster":
        manager = ClusterManager()
        manager.add_node(Node("n0", capacity=Resources(cpus=8, gpus=8, memory_gb=64)))
        job = manager.submit_job(JobKind.TRAIN, name="mix", num_workers=3, queue=False)
        report = run_cluster_study(manager, job, master, backend, ps, conf)
        manager.complete_job(job.job_id)
    else:
        workers = make_workers(master, backend, ps, conf, 3)
        run = run_study_parallel if driver == "parallel" else run_study
        report = run(master, workers, **({"processes": 2} if driver == "parallel" else {}))
    return report, ps, costudy


def fingerprint(report):
    return [dataclasses.astuple(entry) for entry in report.history] + [
        (r.trial.trial_id, r.trial.init_kind, r.trial.init_key, r.trial.max_epochs,
         r.trial.status) for r in report.results
    ]


class TestComposedCoStudyHalving:
    def test_rungs_warm_starts_and_survivors_are_pinned(self):
        report, ps, costudy = composed(SurrogateTrainer(seed=0), "sequential")
        by_budget = {}
        for result in report.results:
            by_budget.setdefault(result.trial.max_epochs, []).append(result)
        # 8 + 4 + 2 trials with budgets 2 / 4 / 8, exactly spent
        assert {b: len(rs) for b, rs in by_budget.items()} == {2: 8, 4: 4, 8: 2}
        assert all(r.epochs == r.trial.max_epochs for r in report.results)
        # rung 0: CoStudy's alpha-greedy rule picks the initial state
        rung0_inits = [r.trial.init_key for r in by_budget[2]]
        inits = costudy.checkpoint_state()
        assert rung0_inits.count("mix/best") == inits["warm_inits"] >= 1
        assert rung0_inits.count(None) == inits["random_inits"] >= 1
        # later rungs: survivors continue from their own checkpoint
        finished_ids = {r.trial.trial_id for r in by_budget[2] + by_budget[4]}
        for result in by_budget[4] + by_budget[8]:
            assert result.trial.init_kind is InitKind.WARM_START
            prefix, _, parent_id = result.trial.init_key.rpartition("/")
            assert prefix == "mix/trial" and int(parent_id) in finished_ids
            assert ps.has(result.trial.init_key)
        # CoStudy kept the shared best, halving every trial's own key
        assert ps.has("mix/best")
        assert all(ps.has(f"mix/trial/{r.trial.trial_id}") for r in report.results)
        assert report.total_epochs == 48
        assert [r.trial.trial_id for r in by_budget[8]] == [13, 14]

    def test_rerun_in_the_same_process_is_the_same_run(self):
        first, _, _ = composed(SurrogateTrainer(seed=0), "sequential")
        again, _, _ = composed(SurrogateTrainer(seed=0), "sequential")
        assert fingerprint(again) == fingerprint(first)
        assert sorted(r.trial.trial_id for r in again.results) == list(range(1, 15))

    def test_cluster_driver_gives_the_same_report(self):
        sequential, _, _ = composed(SurrogateTrainer(seed=0), "sequential")
        clustered, _, _ = composed(SurrogateTrainer(seed=0), "cluster")
        assert fingerprint(clustered) == fingerprint(sequential)

    def test_pool_gives_the_same_report_on_real_training(self, tiny_dataset):
        """With a live patience rule: CoStudy stops rung trials (the pool
        child is cancelled) and halving then checkpoints the stopped
        trial from its last snapshot."""
        def backend():
            return RealTrainer(tiny_dataset, build_mlp, batch_size=16,
                               use_augmentation=False, seed=11)

        sequential, ps_a, _ = composed(backend(), "sequential", patience=1)
        parallel, ps_b, _ = composed(backend(), "parallel", patience=1)
        assert fingerprint(parallel) == fingerprint(sequential)
        statuses = {r.trial.status.value for r in sequential.results}
        assert statuses == {"completed", "stopped"}
        assert sorted(ps_a.keys()) == sorted(ps_b.keys())
        for key in ps_a.keys():
            state_a, state_b = ps_a.get(key), ps_b.get(key)
            for name in state_a:
                np.testing.assert_array_equal(state_a[name], state_b[name])


def test_halving_takes_rung_zero_from_any_advisor():
    """Bayesian x halving: the advisor is whatever the master holds."""
    from repro.core.tune import BayesianAdvisor

    halving = SuccessiveHalving(initial_trials=6, initial_epochs=2, eta=2, max_rungs=2)
    conf, ps = halving.conf(), ParameterServer()
    advisor = BayesianAdvisor(section71_space(), rng=np.random.default_rng(0))
    master = StudyMaster("bo-sh", conf, advisor, ps, scheduler=halving)
    report = run_study(master, make_workers(master, SurrogateTrainer(seed=0), ps, conf, 2))
    assert sorted(r.epochs for r in report.results) == [2] * 6 + [4] * 3
    assert advisor.num_results == 9


def test_base_scheduler_is_algorithm_one():
    master = make_master("default", ParameterServer())
    assert [type(s) for s in master.schedulers] == [TrialScheduler]
