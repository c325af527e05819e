"""The study master: the one event loop of Algorithms 1 and 2.

The master sits in an event loop over its mailbox and owns the
bookkeeping: result and epoch counts, the advisor's ``collect``, the
report, the recovery checkpoint. Policy is its schedulers'
(:mod:`repro.core.tune.schedulers`): ``kRequest`` is answered with
their next trial (a fresh configuration from the :class:`TrialAdvisor`
unless one says otherwise; a shutdown when either is exhausted or the
stop criterion holds), every ``kReport`` and ``kFinish`` is shown to
them, and the ``kPut``/``kStop`` replies are what they decided. No
scheduler is Algorithm 1; :class:`CoStudy` is Algorithm 2.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import telemetry
from repro.cluster.message import Mailbox, Message, MessageType
from repro.core.tune.advisors.base import TrialAdvisor
from repro.core.tune.config import HyperConf
from repro.core.tune.schedulers import (
    EXHAUSTED,
    FRESH,
    STOP,
    WAIT,
    CoStudy,
    TrialScheduler,
)
from repro.core.tune.trial import InitKind, Trial, TrialResult
from repro.paramserver import ParameterServer

__all__ = ["StudyMaster", "CoStudyMaster", "StudyHistoryEntry", "StudyReport"]


@dataclass
class StudyHistoryEntry:
    """One finished trial in completion order (drives Figures 8/9/11)."""

    index: int
    performance: float
    epochs: int
    total_epochs: int
    best_so_far: float
    time: float = 0.0
    init_kind: str = InitKind.RANDOM.value


@dataclass
class StudyReport:
    """Outcome of a whole study."""

    study_name: str
    history: list[StudyHistoryEntry] = field(default_factory=list)
    results: list[TrialResult] = field(default_factory=list)
    total_epochs: int = 0
    wall_time: float = 0.0

    @property
    def best(self) -> TrialResult | None:
        if not self.results:
            return None
        return max(self.results, key=lambda r: r.performance)

    @property
    def best_performance(self) -> float:
        best = self.best
        return best.performance if best is not None else 0.0

    def best_so_far_curve(self) -> list[tuple[int, float]]:
        """(total epochs, best validation accuracy) — Figure 8c/9c."""
        return [(entry.total_epochs, entry.best_so_far) for entry in self.history]


class StudyMaster:
    """The master of Algorithms 1 and 2; ``scheduler`` is the policy.

    ``scheduler`` is one :class:`TrialScheduler` or an ordered list that
    composes: every member sees every event, the first non-default
    answer wins, ``kPut`` keys are unioned. None is Algorithm 1.
    """

    def __init__(
        self,
        study_name: str,
        conf: HyperConf,
        advisor: TrialAdvisor,
        param_server: ParameterServer,
        best_key: str | None = None,
        scheduler: TrialScheduler | Sequence[TrialScheduler] | None = None,
    ):
        self.study_name = study_name
        self.conf = conf
        self.advisor = advisor
        self.param_server = param_server
        self.best_key = best_key if best_key is not None else f"{study_name}/best"
        self._clock = lambda: 0.0  # a driver binds its simulator's (set_clock)
        self.mailbox = Mailbox()
        self.done = False
        self.num_finished = 0
        self.total_epochs = 0
        #: trials handed out so far; the next one gets this plus one.
        self._trials_issued = 0
        self.report = StudyReport(study_name=study_name)
        if isinstance(scheduler, TrialScheduler):
            scheduler = [scheduler]
        self.schedulers = list(scheduler or [TrialScheduler()])
        for member in self.schedulers:
            member.bind(self)
        #: workers told to wait (a rung barrier), re-asked on every finish.
        self._parked: list[str] = []
        registry = telemetry.get_registry()
        self._completed = telemetry.Counter(
            "repro_tune_studies_completed_total", "Studies driven to completion.", registry
        ).labels()
        self._wall_seconds = telemetry.Gauge(
            "repro_tune_study_wall_seconds",
            "Simulated wall time of the most recent study.", registry,
        )

    # ------------------------------------------------------------------
    # the event loop body
    # ------------------------------------------------------------------

    def step(self) -> list[tuple[str, Message]]:
        """Process all queued messages; return (worker, reply) pairs.

        One ``tune.master`` span covers the step, tagged with what it
        answered (kinds with none left out): ``fresh``/``made`` trial ids
        (from the advisor / a scheduler), ``parked`` and ``shutdown``
        workers, ``stop`` trial ids and ``put`` ``(trial id, key)`` pairs.
        """
        replies: list[tuple[str, Message]] = []
        self._answered = answered = defaultdict(list)
        with telemetry.get_tracer().span("tune.master") as span:
            while (message := self.mailbox.receive()) is not None:
                if message.type is MessageType.REQUEST:
                    replies.extend(self._on_request(message))
                elif message.type is MessageType.REPORT:
                    replies.extend(self._on_report(message))
                elif message.type is MessageType.FINISH:
                    replies.extend(self._on_finish(message))
            span.tag(**answered)
        return replies

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    def _on_request(self, message: Message) -> list[tuple[str, Message]]:
        worker = message.sender
        trial = EXHAUSTED
        if not self.done and self.conf.should_continue(
            self.num_finished, self.total_epochs
        ):
            for scheduler in self.schedulers:
                trial = scheduler.next_trial(worker)
                if trial is not FRESH:
                    break
        if trial is WAIT:
            self._answered["parked"].append(worker)
            if worker not in self._parked:
                self._parked.append(worker)
            return []
        kind = "made"
        if trial is FRESH:
            params, kind = self.advisor.next(worker), "fresh"
            trial = Trial(params=params) if params is not None else EXHAUSTED
        if trial is EXHAUSTED:
            self.done = True
            self._answered["shutdown"].append(worker)
            return [(worker, Message(MessageType.SHUTDOWN, self.study_name))]
        self._trials_issued += 1
        trial.trial_id = self._trials_issued
        self._answered[kind].append(trial.trial_id)
        for scheduler in self.schedulers:
            scheduler.on_trial_add(trial)
        return [(worker, Message(MessageType.TRIAL, self.study_name, {"trial": trial}))]

    def _on_report(self, message: Message) -> list[tuple[str, Message]]:
        worker, trial = message.sender, message.payload["trial"]
        performance = float(message.payload["p"])
        stop, keys = False, []
        for scheduler in self.schedulers:
            decision, more = scheduler.on_trial_result(worker, trial, performance)
            stop = stop or decision is STOP
            keys += more
        replies = self._puts(worker, trial, keys, performance)
        if stop:
            self._answered["stop"].append(trial.trial_id)
            replies.append((worker, Message(MessageType.STOP, self.study_name)))
        return replies

    def _on_finish(self, message: Message) -> list[tuple[str, Message]]:
        result = TrialResult(
            trial=message.payload["trial"],
            performance=float(message.payload["p"]),
            epochs=int(message.payload["epochs"]),
            worker=message.sender,
        )
        self.advisor.collect(result)
        self.num_finished += 1
        self.total_epochs += result.epochs
        self._record(result)
        keys = [k for s in self.schedulers for k in s.on_trial_complete(result)]
        if not self.conf.should_continue(self.num_finished, self.total_epochs):
            self.done = True
        # the finish may have freed what parked workers were waiting for
        parked, self._parked = self._parked, []
        for worker in parked:
            self.mailbox.send(Message(MessageType.REQUEST, worker))
        return self._puts(message.sender, result.trial, keys, result.performance)

    def _puts(self, worker: str, trial: Trial, keys: list[str], performance: float):
        replies = []
        for key in dict.fromkeys(keys):  # the union, in first-named order
            self._answered["put"].append((trial.trial_id, key))
            replies.append((worker, Message(MessageType.PUT, self.study_name,
                                            {"key": key, "performance": performance})))
        return replies

    def _record(self, result: TrialResult) -> None:
        self.report.results.append(result)
        self.report.total_epochs = self.total_epochs
        self.report.history.append(
            StudyHistoryEntry(
                index=self.num_finished,
                performance=result.performance,
                epochs=result.epochs,
                total_epochs=self.total_epochs,
                best_so_far=self.advisor.best_performance,
                time=float(self._clock()),
                init_kind=result.trial.init_kind.value,
            )
        )

    def set_clock(self, clock) -> None:
        """Bind the master to a time source (the runner's simulator)."""
        self._clock = clock

    def finalize(self, wall_time: float) -> StudyReport:
        """Stamp the wall time, count the study, return the report (Alg. 1 l. 20)."""
        self.report.wall_time = wall_time
        self._completed.inc()
        self._wall_seconds.set(wall_time)
        return self.report

    # ------------------------------------------------------------------
    # failure recovery (Section 6.3): master state is small
    # ------------------------------------------------------------------

    def checkpoint_state(self) -> dict:
        """The small master state Rafiki checkpoints for recovery."""
        state = {
            "num_finished": self.num_finished,
            "total_epochs": self.total_epochs,
            "trials_issued": self._trials_issued,
        }
        for scheduler in self.schedulers:
            state.update(scheduler.checkpoint_state())
        return state

    def restore_state(self, state: dict) -> None:
        """Resume the counts (and the schedulers) from a checkpoint.

        Trial numbering resumes too: a restored master never hands out
        an id the checkpointed one already did.
        """
        self.num_finished = int(state["num_finished"])
        self.total_epochs = int(state["total_epochs"])
        self._trials_issued = int(state["trials_issued"])
        for scheduler in self.schedulers:
            scheduler.restore_state(state)


def CoStudyMaster(
    study_name: str,
    conf: HyperConf,
    advisor: TrialAdvisor,
    param_server: ParameterServer,
    best_key: str | None = None,
    rng: np.random.Generator | None = None,
) -> StudyMaster:
    """Algorithm 2: a :class:`StudyMaster` scheduled by :class:`CoStudy`."""
    return StudyMaster(study_name, conf, advisor, param_server, best_key, CoStudy(rng=rng))
