"""The training service: distributed hyper-parameter tuning.

Public pieces: the :class:`HyperSpace` programming model (Figure 4),
:class:`HyperConf` (the SDK's tuning options), the trial advisors, the
one :class:`StudyMaster` and the :class:`TrialScheduler` plug-ins that
give it a policy (none: Algorithm 1; :class:`CoStudy`: Algorithm 2;
:class:`SuccessiveHalving`; an ordered list of them composes), workers,
the two trainer backends, and :func:`run_study` which executes a study
over simulated time.
"""

from repro.core.tune.advisors import (
    BayesianAdvisor,
    GridSearchAdvisor,
    RandomSearchAdvisor,
    TrialAdvisor,
)
from repro.core.tune.backends import RealTrainer, TrainerBackend, TrialSession
from repro.core.tune.config import HyperConf
from repro.core.tune.early_stopping import EarlyStopper
from repro.core.tune.hyperspace import CategoricalKnob, HyperSpace, RangeKnob
from repro.core.tune.pool import PoolTrialExecutor, TrialPool, run_study_parallel
from repro.core.tune.runner import make_workers, run_study
from repro.core.tune.schedulers import CoStudy, SuccessiveHalving, TrialScheduler
from repro.core.tune.spaces import demo_space, section71_space
from repro.core.tune.study import (
    CoStudyMaster,
    StudyHistoryEntry,
    StudyMaster,
    StudyReport,
)
from repro.core.tune.surrogate import SurrogateTrainer
from repro.core.tune.trial import InitKind, Trial, TrialResult, TrialStatus
from repro.core.tune.worker import TuneWorker

__all__ = [
    "HyperSpace",
    "RangeKnob",
    "CategoricalKnob",
    "HyperConf",
    "TrialAdvisor",
    "RandomSearchAdvisor",
    "GridSearchAdvisor",
    "BayesianAdvisor",
    "StudyMaster",
    "CoStudyMaster",
    "TrialScheduler",
    "CoStudy",
    "SuccessiveHalving",
    "StudyReport",
    "StudyHistoryEntry",
    "TuneWorker",
    "Trial",
    "TrialResult",
    "TrialStatus",
    "InitKind",
    "EarlyStopper",
    "TrainerBackend",
    "TrialSession",
    "RealTrainer",
    "SurrogateTrainer",
    "run_study",
    "make_workers",
    "section71_space",
    "demo_space",
    "run_study_parallel",
    "PoolTrialExecutor",
    "TrialPool",
]
