"""Tuning workers.

A worker keeps requesting trials from the master, trains one epoch per
step, reports validation performance after every epoch, and obeys
``kPut`` (persist parameters to the parameter server) and ``kStop``
(abandon the current trial) instructions.
"""

from __future__ import annotations

import numpy as np

from repro import chaos, telemetry
from repro.cluster.message import Mailbox, Message, MessageType
from repro.core.tune.backends import TrainerBackend, TrialSession
from repro.core.tune.config import HyperConf
from repro.core.tune.early_stopping import TrialStopRule
from repro.core.tune.trial import InitKind, Trial, TrialStatus
from repro.exceptions import InjectedFault
from repro.paramserver import ParameterServer
from repro.tenancy import current_tenant
from repro.utils.retry import RetryPolicy

__all__ = ["TuneWorker"]

#: simulated seconds per training epoch — spans minutes to hours.
EPOCH_SECONDS_BUCKETS = (0.1, 1.0, 10.0, 60.0, 300.0, 900.0, 1800.0, 3600.0, 10800.0)


class TuneWorker:
    """One tuning worker (one GPU in the paper's deployment)."""

    def __init__(
        self,
        name: str,
        backend: TrainerBackend,
        param_server: ParameterServer,
        conf: HyperConf,
        retry: RetryPolicy | None = None,
    ):
        self.name = name
        self.backend = backend
        self.param_server = param_server
        self.conf = conf
        #: how often a crashed trial (an injected ``tune.trial`` fault)
        #: is restarted from its checkpoint before being reported FAILED.
        self.retry = retry if retry is not None else RetryPolicy(max_attempts=3)
        self.mailbox = Mailbox()
        self.terminated = False
        self._trial: Trial | None = None
        self._session: TrialSession | None = None
        self._last_session: TrialSession | None = None
        self._stop_rule: TrialStopRule | None = None
        self._awaiting_trial = False
        self._init_state: dict[str, np.ndarray] | None = None
        self._trial_crashes = 0
        registry = telemetry.get_registry()
        self._epochs, started, self._crashes, self._completed = (
            telemetry.Counter(name, help, registry) for name, help in (
                ("repro_tune_epochs_total", "Training epochs run across all workers."),
                ("repro_tune_trials_started_total",
                 "Trials handed to workers, by initialisation kind."),
                ("repro_tune_trial_crashes_total",
                 "Trial crashes (injected tune.trial faults), by outcome."),
                ("repro_tune_trials_completed_total", "Trials finished, by final status."),
            )
        )
        self._epoch_seconds = telemetry.Histogram(
            "repro_tune_epoch_seconds", "Per-epoch duration in (simulated) seconds.",
            registry, buckets=EPOCH_SECONDS_BUCKETS,
        ).labels()
        self._started = {kind: started.labels(init=kind.value) for kind in InitKind}

    # ------------------------------------------------------------------
    # the worker loop body
    # ------------------------------------------------------------------

    def step(self) -> tuple[list[Message], float]:
        """Handle inbox, then do one unit of work.

        Returns ``(outgoing messages, simulated seconds consumed)``.
        """
        outgoing: list[Message] = []
        self._drain_inbox(outgoing)
        if self.terminated:
            return outgoing, 0.0
        if self._session is None:
            if not self._awaiting_trial:
                outgoing.append(Message(MessageType.REQUEST, self.name))
                self._awaiting_trial = True
            return outgoing, 0.0
        cost = self.backend.epoch_cost(self._trial)
        try:
            cost += chaos.fire("tune.trial")
            with telemetry.get_tracer().span("tune.epoch", trial_id=self._trial.trial_id):
                accuracy = self._session.run_epoch()
        except InjectedFault:
            # The trial crashed mid-epoch: the epoch's compute is lost
            # (cost is still consumed) and the trial restarts from its
            # checkpoint — sessions are pure functions of (trial,
            # init_state), so a re-run reproduces the healthy epochs
            # bit-for-bit before continuing.
            self._recover_trial(outgoing)
            return outgoing, cost
        self._epochs.inc(tenant=current_tenant())
        self._epoch_seconds.observe(cost)
        outgoing.append(
            Message(
                MessageType.REPORT,
                self.name,
                {
                    "p": accuracy,
                    "trial": self._trial,
                    "epochs": self._session.epochs,
                },
            )
        )
        if self._stop_rule.update(accuracy):
            self._finish(TrialStatus.COMPLETED, outgoing)
        return outgoing, cost

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------

    def _drain_inbox(self, outgoing: list[Message]) -> None:
        while True:
            message = self.mailbox.receive()
            if message is None:
                return
            if message.type is MessageType.TRIAL:
                self._start_trial(message.payload["trial"])
            elif message.type is MessageType.PUT:
                self._put_params(message.payload.get("key", "best"),
                                 message.payload.get("performance"))
            elif message.type is MessageType.STOP:
                if self._session is not None:
                    self._finish(TrialStatus.STOPPED, outgoing)
            elif message.type is MessageType.SHUTDOWN:
                self.terminated = True
                self._session = None
                self._trial = None

    def _start_trial(self, trial: Trial) -> None:
        self._awaiting_trial = False
        init_state: dict[str, np.ndarray] | None = None
        if (
            trial.init_kind is InitKind.WARM_START
            and trial.init_key is not None
            and self.param_server.has(trial.init_key)
        ):
            init_state = self.param_server.get(trial.init_key)
        trial.status = TrialStatus.RUNNING
        self._trial = trial
        self._init_state = init_state
        self._trial_crashes = 0
        self._session = self.backend.start(trial, init_state)
        self._stop_rule = TrialStopRule(trial, self.conf)
        self._started[trial.init_kind].inc()

    def _recover_trial(self, outgoing: list[Message]) -> None:
        """Restart the crashed trial from its checkpoint, or give up.

        Restarts are capped by ``self.retry.max_attempts``; past the cap
        the trial is finished as FAILED (performance from whatever
        epochs completed before the first crash, typically 0.0 for an
        immediate crash) so the master can move the study along.
        """
        assert self._trial is not None
        self._trial_crashes += 1
        exhausted = self._trial_crashes >= self.retry.max_attempts
        self._crashes.inc(outcome="failed" if exhausted else "retried")
        if exhausted:
            self._finish(TrialStatus.FAILED, outgoing)
            return
        self._session = self.backend.start(self._trial, self._init_state)
        self._stop_rule = TrialStopRule(self._trial, self.conf)

    def _put_params(self, key: str, performance: float | None) -> None:
        # kPut may refer to the running session or (after kFinish, see
        # Algorithm 1 line 15) to the just-finished one.
        session = self._session if self._session is not None else self._last_session
        if session is None:
            return
        self.param_server.put(
            key,
            session.state_dict(),
            performance=(
                performance if performance is not None else session.best_performance
            ),
        )

    def _finish(self, status: TrialStatus, outgoing: list[Message]) -> None:
        assert self._session is not None and self._trial is not None
        self._trial.status = status
        self._completed.inc(status=status.value)
        outgoing.append(
            Message(
                MessageType.FINISH,
                self.name,
                {
                    "p": self._session.best_performance,
                    "trial": self._trial,
                    "epochs": self._session.epochs,
                },
            )
        )
        if status is not TrialStatus.COMPLETED and hasattr(self._session, "cancel"):
            self._session.cancel()  # a remote executor may still be computing
        # Keep the session parameters around: the master may still reply
        # with kPut for this just-finished trial (Algorithm 1 line 15).
        self._trial = None
        self._stop_rule = None
        self._last_session = self._session
        self._session = None

    @property
    def busy(self) -> bool:
        return self._session is not None

    @property
    def awaiting_trial(self) -> bool:
        """Requested a trial and is waiting for the master's reply.

        Masters may *park* a requesting worker (successive halving's
        rung barrier) and wake it later, so a waiting worker must keep
        polling its mailbox instead of terminating.
        """
        return self._awaiting_trial
