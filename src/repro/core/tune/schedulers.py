"""Trial schedulers: the policy plug-ins of the one study master.

Study (Algorithm 1) and CoStudy (Algorithm 2) are one master/worker
protocol that differs in where a trial's initial state comes from, when
a worker is told to ``kPut`` and who ends a trial.
:class:`~repro.core.tune.study.StudyMaster` owns the protocol and the
bookkeeping; a :class:`TrialScheduler` gives those answers through the
narrow interface of Tune's trial scheduler:

* ``next_trial(worker)`` answers a ``kRequest``: a ready-made
  :class:`Trial`, or ``FRESH`` (draw a configuration from the master's
  advisor), ``WAIT`` (park the worker until a trial finishes) or
  ``EXHAUSTED`` (shut the study down);
* ``on_trial_add(trial)`` sees every trial, already numbered by the
  master, before it is handed out and may set its
  ``init_kind``/``init_key`` (the initial-state hook), ``max_epochs``
  and ``local_early_stop``;
* ``on_trial_result(worker, trial, performance)`` sees every
  ``kReport`` and returns ``CONTINUE`` or ``STOP`` plus the
  parameter-server keys the worker must ``kPut`` now;
* ``on_trial_complete(result)`` sees every ``kFinish`` and returns the
  keys to ``kPut`` the finished trial's parameters under.

The base class is Algorithm 1's policy. The master takes an ordered
list of schedulers: each sees every event, the first answer that is not
the default (``FRESH``, ``CONTINUE``) wins and ``kPut`` keys are
unioned. Schedulers never import the master: ``bind`` hands them the
study they serve, of which they read ``conf``, ``advisor``,
``param_server``, ``best_key`` and ``num_finished``.
"""

from __future__ import annotations

import enum
import weakref

import numpy as np

from repro import telemetry
from repro.core.tune.config import HyperConf
from repro.core.tune.early_stopping import EarlyStopper
from repro.core.tune.trial import InitKind, Trial, TrialResult
from repro.exceptions import ConfigurationError

__all__ = ["TrialScheduler", "CoStudy", "SuccessiveHalving", "Decision", "Answer"]


class Decision(enum.Enum):
    """A scheduler's verdict on a running trial after one epoch."""

    CONTINUE = "continue"
    STOP = "stop"


class Answer(enum.Enum):
    """A scheduler's non-trial answers to ``kRequest``."""

    FRESH = "fresh"  # draw the next configuration from the advisor
    WAIT = "wait"  # nothing now; ask again when a trial has finished
    EXHAUSTED = "exhausted"  # nothing ever again: shut the study down


CONTINUE, STOP = Decision.CONTINUE, Decision.STOP
FRESH, WAIT, EXHAUSTED = Answer.FRESH, Answer.WAIT, Answer.EXHAUSTED


class TrialScheduler:
    """Algorithm 1's policy, and the base of every other.

    Trials come from the advisor and start from random initialisation,
    workers end them by the patience rule themselves, and the worker
    whose trial set a new best is told to ``kPut`` it on finish.
    """

    def bind(self, study) -> None:
        """Attach to the master this scheduler answers for.

        The master holds its schedulers, so a scheduler holds it through
        a weak proxy: a strong reference back would make every study a
        cycle that only the cyclic collector frees.
        """
        self.study = weakref.proxy(study)

    def next_trial(self, worker: str) -> Trial | Answer:
        return FRESH

    def on_trial_add(self, trial: Trial) -> None:
        pass

    def on_trial_result(
        self, worker: str, trial: Trial, performance: float
    ) -> tuple[Decision, list[str]]:
        return CONTINUE, []

    def on_trial_complete(self, result: TrialResult) -> list[str]:
        """Algorithm 1 line 15: the best trial's parameters are kept."""
        return [self.study.best_key] if self.study.advisor.is_best(result.worker) else []

    def checkpoint_state(self) -> dict:
        """The scheduler's share of the master's recovery checkpoint."""
        return {}

    def restore_state(self, state: dict) -> None:
        pass


class CoStudy(TrialScheduler):
    """Algorithm 2's policy: collaborative tuning.

    * a new trial starts from the best parameters in the parameter
      server, subject to the alpha-greedy rule that keeps a decaying
      probability of random initialisation (the guard against a bad
      checkpoint poisoning later trials); a trial that already names a
      checkpoint to continue from is left alone;
    * a worker whose report beats the best by more than ``conf.delta``
      is told to ``kPut`` (lines 8-10), so the shared checkpoint
      ratchets upward *during* training — and not again on finish;
    * early stopping moves to the master (line 11): a worker whose
      reports plateau is stopped.
    """

    def __init__(self, rng: np.random.Generator | None = None):
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.best_p = 0.0
        #: patience state per (worker, trial): a replacement worker
        #: re-running a lost trial re-reports its epochs from the first.
        self._stoppers: dict[tuple[str, int], EarlyStopper] = {}
        registry = telemetry.get_registry()
        inits = telemetry.Counter(
            "repro_tune_costudy_inits_total",
            "CoStudy trial initialisations, by alpha-greedy outcome.", registry,
        )
        self._inits = {kind: inits.labels(kind=kind) for kind in ("random", "warm")}
        self._syncs = telemetry.Counter(
            "repro_tune_costudy_syncs_total",
            "kPut checkpoint syncs ordered on best-beating reports "
            "(Algorithm 2 lines 8-10).", registry,
        ).labels()

    def on_trial_add(self, trial: Trial) -> None:
        trial.local_early_stop = False
        if trial.init_key is not None:
            return
        study = self.study
        alpha = study.conf.alpha(study.num_finished)
        use_random = (
            self._rng.random() < alpha or not study.param_server.has(study.best_key)
        )
        if use_random:
            self._inits["random"].inc()
            return
        self._inits["warm"].inc()
        trial.init_kind, trial.init_key = InitKind.WARM_START, study.best_key

    def on_trial_result(
        self, worker: str, trial: Trial, performance: float
    ) -> tuple[Decision, list[str]]:
        if performance - self.best_p > self.study.conf.delta:
            self.best_p = performance
            self._syncs.inc()
            return CONTINUE, [self.study.best_key]
        stopper = self._stoppers.get((worker, trial.trial_id))
        if stopper is None:
            conf = self.study.conf
            stopper = EarlyStopper(conf.early_stop_patience, conf.early_stop_min_delta)
            self._stoppers[worker, trial.trial_id] = stopper
        return (STOP if stopper.update(performance) else CONTINUE), []

    def on_trial_complete(self, result: TrialResult) -> list[str]:
        self._stoppers.pop((result.worker, result.trial.trial_id), None)
        return []  # checkpointing is report-driven

    def checkpoint_state(self) -> dict:
        return {
            "best_p": self.best_p,
            "random_inits": self._inits["random"].count,
            "warm_inits": self._inits["warm"].count,
        }

    def restore_state(self, state: dict) -> None:
        """Set the init counts (the record) back; the series is left alone."""
        self.best_p = float(state["best_p"])
        for kind, child in self._inits.items():
            child.count = int(state[f"{kind}_inits"])


class SuccessiveHalving(TrialScheduler):
    """Successive halving (the inner loop of Hyperband).

    Rung 0 draws ``initial_trials`` configurations from the master's
    advisor, each trained for ``initial_epochs`` epochs. When a rung
    completes, its top ``1/eta`` advance with an ``eta``-times larger
    budget, *continuing from their own checkpoints* — every finished
    trial is ``kPut`` under its own key. Workers asking while a rung is
    still running wait at the barrier; after ``max_rungs`` rungs the
    study is exhausted. Budgets ride on :attr:`Trial.max_epochs` and
    are exact: workers do not early-stop rung trials. Checkpoint keys
    are ``<checkpoint_prefix>/trial/<id>``; the prefix defaults to the
    study's name, so studies sharing a parameter server stay apart.
    """

    def __init__(
        self,
        initial_trials: int = 16,
        initial_epochs: int = 2,
        eta: int = 2,
        max_rungs: int = 4,
        checkpoint_prefix: str | None = None,
    ):
        if initial_trials < eta:
            raise ConfigurationError(
                f"initial_trials ({initial_trials}) must be >= eta ({eta})"
            )
        if eta < 2:
            raise ConfigurationError(f"eta must be >= 2, got {eta}")
        self.initial_trials = int(initial_trials)
        self.initial_epochs = int(initial_epochs)
        self.eta = int(eta)
        self.max_rungs = int(max_rungs)
        self.checkpoint_prefix = checkpoint_prefix
        self.rung = 0
        #: what the current rung still has to hand out: rung 0 draws
        #: from the advisor, later rungs continue the survivors.
        self._queue: list[Trial | Answer] = [FRESH] * self.initial_trials
        self._outstanding = 0
        self._rung_results: list[TrialResult] = []

    def bind(self, study) -> None:
        super().bind(study)
        if self.checkpoint_prefix is None:
            self.checkpoint_prefix = study.study_name

    def rung_budget(self, rung: int) -> int:
        return self.initial_epochs * self.eta**rung

    def checkpoint_key(self, trial_id: int) -> str:
        return f"{self.checkpoint_prefix}/trial/{trial_id}"

    def conf(self) -> HyperConf:
        """A HyperConf whose trial budget is the schedule's trial count.

        The rungs budget trials themselves, so the patience rule is off.
        """
        widths = [
            max(self.initial_trials // self.eta**rung, 1)
            for rung in range(self.max_rungs)
        ]
        return HyperConf(max_trials=sum(widths), early_stop_patience=10_000)

    def next_trial(self, worker: str) -> Trial | Answer:
        if self._queue:
            return self._queue.pop(0)
        return WAIT if self._outstanding else EXHAUSTED

    def on_trial_add(self, trial: Trial) -> None:
        trial.local_early_stop = False
        trial.max_epochs = self.rung_budget(self.rung)
        self._outstanding += 1

    def on_trial_complete(self, result: TrialResult) -> list[str]:
        self._outstanding -= 1
        self._rung_results.append(result)
        if not (self._outstanding or self._queue):
            self._advance_rung()
        own_key = self.checkpoint_key(result.trial.trial_id)
        return [own_key, *super().on_trial_complete(result)]

    def _advance_rung(self) -> None:
        """Queue the top 1/eta of the finished rung for the next one."""
        self.rung += 1
        survivors = sorted(self._rung_results, key=lambda r: -r.performance)[
            : max(len(self._rung_results) // self.eta, 1)
        ]
        self._rung_results = []
        if self.rung >= self.max_rungs:
            return
        for result in survivors:
            parent = result.trial
            self._queue.append(
                Trial(
                    params=dict(parent.params),
                    init_kind=InitKind.WARM_START,
                    init_key=self.checkpoint_key(parent.trial_id),
                )
            )
