"""``tune_costudy``: the training service, real and with training removed.

Primary phase: one ``Rafiki.create_train_job`` — CoStudy, Bayesian
advisor, ``RealTrainer``, two models, PS checkpoints. The operation is a
training epoch and its latency the epoch time; epochs are ~99 % of a
real study, so this phase answers to the tensor engine. Alt phase:
CoStudies of 150 trials each on ``SurrogateTrainer``. Nothing trains,
so what is left is the advisor's GP, master/worker messaging, the
simulator and PS puts: the scheduler's own cost, per trial.

Early stopping is set to never fire (patience = epoch cap) and the
learning-rate range excludes divergence, so every seed does the same
number of equally expensive epochs and only the proposals differ.
"""

from __future__ import annotations

import itertools
import os
import time

import numpy as np

from repro.core.system import Rafiki
from repro.core.tune import (
    BayesianAdvisor,
    CoStudyMaster,
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
from repro.tenancy import tenant_context

import harness

_perf = time.perf_counter

EPOCHS_PER_TRIAL = 4
SURROGATE_TRIALS = 150
SURROGATE_EPOCHS = 8


class TrialLapBackend:
    """Surrogate backend that starts a new clock lap with every trial.

    The n-th trial of a study costs more than the first (the GP has n
    observations to fit), so the lap's kind is the trial's ordinal: the
    same ordinal across studies is the same work.
    """

    def __init__(self, inner, clock):
        self.inner = inner
        self.clock = clock
        self.started = 0

    def start(self, trial, init_state):
        if self.clock.open is not None:
            self.clock.lap(f"trial-{self.started}").ops = 1
        self.started += 1
        return self.inner.start(trial, init_state)

    def epoch_cost(self, trial) -> float:
        return self.inner.epoch_cost(trial)


class TuneWorkload(harness.Workload):
    def __init__(self, name: str, seed: int, seconds: float):
        super().__init__(name, seed, seconds)
        self.trials = max(2, round(1.8 * seconds))
        self.studies = max(2, round(0.6 * seconds))
        self.light = seconds < 1.0

    # -- set-up ---------------------------------------------------------

    def setup(self, clock, tracer) -> None:
        self.clock, self.tracer = clock, tracer
        tenants = harness.tenant_registry()
        self.system = system = Rafiki(seed=self.seed, tenants=tenants)
        if tracer is not None:
            tracer.wrap(system.cluster, "submit_job", "cluster.submit_job")
            tracer.wrap(system, "create_inference_job", "system.deploy")
            harness.trace_param_server(tracer, system.param_server)
            harness.trace_store(tracer, system.store)
            harness.trace_tenants(tracer, tenants)
        self.dataset = harness.food_dataset(self.seed)
        system.import_images(self.dataset)
        clock.lap("warm-real")
        # Warm both paths with the system's own work: a short real study
        # per model and one surrogate study (BLAS, allocator, GP, PS).
        # Not through create_train_job: a finished job records each
        # model's accuracy in the registry, and model selection would
        # then hand the timed job a seed-dependent number of models.
        for entry in system.registry.select_diverse("ImageClassification", k=2):
            backend = harness.real_backend_factory(clock, tracer, self.seed)(
                entry, self.dataset)
            self._study(f"warm-up/{entry.name}", backend,
                        trials=2 if self.light else 3, epochs=3)
        clock.lap("warm-surrogate")
        self._study("warm-up/surrogate", SurrogateTrainer(seed=self.seed),
                    trials=20 if self.light else SURROGATE_TRIALS,
                    epochs=SURROGATE_EPOCHS)

    def _train(self, name: str, trials: int, epochs: int) -> str:
        return self.system.create_train_job(
            name, "ImageClassification", self.dataset.name,
            hyper=HyperConf(max_trials=trials, max_epochs_per_trial=epochs,
                            early_stop_patience=epochs),
            space=harness.stable_space(), num_models=2, num_workers=2,
            advisor="bayesian", collaborative=True,
            backend_factory=harness.real_backend_factory(
                self.clock, self.tracer, self.seed),
            tenant=harness.TENANTS[0],
        )

    def _study(self, name: str, backend, trials: int, epochs: int):
        """One CoStudy built from the public tune parts, on the system's PS.

        Every surrogate study of a run replays the same proposal stream
        (the generators depend on the seed only), so the alt phase's
        segments do equal work.
        """
        streams = np.random.SeedSequence([self.seed, trials]).spawn(2)
        advisor = BayesianAdvisor(section71_space(), rng=np.random.default_rng(streams[0]))
        conf = HyperConf(max_trials=trials, max_epochs_per_trial=epochs,
                         early_stop_patience=epochs)
        server = self.system.param_server
        master = CoStudyMaster(name, conf, advisor, server, best_key=f"{name}/best",
                               rng=np.random.default_rng(streams[1]))
        workers = make_workers(master, backend, server, conf, 2,
                               name_prefix=f"{name}/worker")
        tracer = self.tracer
        with tenant_context(harness.TENANTS[1]):
            if tracer is None:
                return run_study(master, workers)
            tracer.wrap(advisor, "propose", "tune.advisor.propose")
            tracer.wrap(advisor, "collect", "tune.advisor.collect")
            with tracer.span("tune.study"):
                return run_study(master, workers)

    # -- load -----------------------------------------------------------

    def run(self, outcome, primary: str, alt: str) -> None:
        clock, tracer = self.clock, self.tracer
        if tracer is not None:
            tracer.enter("primary", timed=True)
        timed_before = clock.ops(primary)
        clock.begin(primary, "control")
        self.train_job = self._train("tune", self.trials, EPOCHS_PER_TRIAL)
        clock.end()
        info = self.system.get_train_job(self.train_job)
        self.reports = list(info.reports.values())
        # Two workers overshoot max_trials by at most one trial per model.
        expected = 2 * self.trials * EPOCHS_PER_TRIAL
        done = sum(report.total_epochs for report in info.reports.values())
        outcome.attempt(primary, max(done, expected))
        outcome.fail(primary, max(0, expected - done))
        outcome.oracle("two_models_every_epoch_timed",
                       len(info.reports) != 2 or done != clock.ops(primary) - timed_before)
        for report in info.reports.values():
            outcome.record(report.study_name, report.total_epochs,
                           [r.performance for r in report.results])
        if tracer is not None:
            tracer.enter("alt", timed=True)
        for index in range(self.studies):
            clock.begin(alt, "control")
            backend = TrialLapBackend(SurrogateTrainer(seed=self.seed), clock)
            report = self._study(f"surrogate-{index}", backend,
                                 SURROGATE_TRIALS, SURROGATE_EPOCHS)
            clock.end()
            self.reports.append(report)
            outcome.attempt(alt, SURROGATE_TRIALS)
            outcome.fail(alt, SURROGATE_TRIALS - len(report.results))
            outcome.record(report.total_epochs, round(report.best_performance, 12))
        for segment in clock.phase(alt):
            if segment.ops:
                segment.latencies.append(segment.raw_s)

    def verify(self, outcome) -> None:
        system = self.system
        infer_job = system.create_inference_job(
            system.get_models(self.train_job), tenant=harness.TENANTS[0])
        deployed = harness.Deployed(system, self.dataset, self.train_job, infer_job)
        harness.checkpoint_oracle(deployed, outcome)
        if self.tracer is not None:
            self.pool = self._pool_study()
            outcome.oracle("pool_bit_identical", not self.pool["bit_identical"])

    def _pool_study(self) -> dict:
        """Sequential vs ``TrialPool`` on the same small study: raw, ungated.

        Two children on two shared cores cannot be calibrated, so this is
        a layer number only. Bit-identity needs both runs to hand out the
        same trial ids, hence the rewind the repository's own
        ``examples/parallel_tuning.py`` uses.
        """
        import repro.core.tune.trial as trial_module

        first_id = 10_000_000
        reports, seconds = [], []
        for parallel in (False, True):
            trial_module._trial_ids = itertools.count(first_id)
            conf = HyperConf(max_trials=4, max_epochs_per_trial=2)
            server = self.system.param_server
            advisor = RandomSearchAdvisor(
                harness.stable_space(), rng=np.random.default_rng(self.seed))
            master = StudyMaster(f"pool-{int(parallel)}", conf, advisor, server)
            entry = self.system.registry.get("ImageClassification", "squeeze-mini")
            backend = RealTrainer(self.dataset, entry.builder, seed=self.seed)
            workers = make_workers(master, backend, server, conf, 2)
            start = _perf()
            if parallel:
                report = run_study_parallel(
                    master, workers, processes=min(2, os.cpu_count() or 1))
            else:
                report = run_study(master, workers)
            seconds.append(_perf() - start)
            reports.append(report)
        sequential, pooled = reports
        same = (
            [r.performance for r in sequential.results]
            == [r.performance for r in pooled.results]
            and sequential.total_epochs == pooled.total_epochs
        )
        return {"bit_identical": same,
                "epochs_per_s_raw": pooled.total_epochs / seconds[1]}

    # -- per-layer numbers ------------------------------------------------

    def layers(self, tracer) -> dict[str, float]:
        timed = harness.TIMED
        studies = tracer.select("tune.study", ("alt",))
        study_s = sum(s.cal_s for s in studies)
        warm = sum(entry.init_kind == "warm-start"
                   for report in self.reports for entry in report.history)
        return {
            "tune.trials": sum(len(r.results) for r in self.reports),
            "tune.epochs": sum(r.total_epochs for r in self.reports),
            "tune.warm_starts": warm,
            "tune.advisor.propose.calls": tracer.count("tune.advisor.propose", timed),
            "tune.advisor.propose.ms": tracer.total_ms("tune.advisor.propose", timed),
            "tune.advisor.collect.ms": tracer.total_ms("tune.advisor.collect", timed),
            "tune.control.self_share":
                sum(s.self_cal_s for s in studies) / study_s if study_s else 0.0,
            "tune.pool.epochs_per_s_raw": self.pool["epochs_per_s_raw"],
            "tune.pool.bit_identical": float(self.pool["bit_identical"]),
            **harness.tenancy_layers(tracer),
            "system.deploy.ms": tracer.total_ms("system.deploy"),
            **harness.training_layers(tracer),
            **harness.storage_layers(tracer, self.system.param_server,
                                     self.system.store.blocks),
        }
