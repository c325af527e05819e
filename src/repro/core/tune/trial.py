"""Trials and their results.

Following the paper's (and Vizier's) convention, one assignment of all
hyper-parameters is a *trial*; the tuning process of one model over a
dataset is a *study*.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any

__all__ = ["Trial", "TrialResult", "TrialStatus", "InitKind"]


class InitKind(enum.Enum):
    """How a trial's model parameters are initialised."""

    RANDOM = "random"
    WARM_START = "warm-start"


class TrialStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    STOPPED = "stopped"  # early-stopped by the master
    FAILED = "failed"


@dataclass
class Trial:
    """One hyper-parameter assignment handed to a worker."""

    params: dict[str, Any]
    #: unique within its study: the :class:`StudyMaster` numbers the
    #: trials it hands out from 1 (0 = not handed out yet), and
    #: sessions seed from the id.
    trial_id: int = 0
    init_kind: InitKind = InitKind.RANDOM
    init_key: str | None = None  # parameter-server key for warm starts
    status: TrialStatus = TrialStatus.PENDING
    #: per-trial epoch budget override (successive halving assigns
    #: rung-specific budgets); None defers to the study configuration.
    max_epochs: int | None = None
    #: the worker ends this trial by the study's patience rule
    #: (Algorithm 1); cleared by a scheduler that stops or checkpoints
    #: trials from their reports (Algorithm 2) or budgets them exactly.
    local_early_stop: bool = True


@dataclass
class TrialResult:
    """Outcome of one trial."""

    trial: Trial
    performance: float
    epochs: int
    worker: str = ""
