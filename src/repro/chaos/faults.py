"""Deterministic fault injection at named points.

A :class:`FaultPlan` owns a set of :class:`FaultRule`\\ s, each matching
one or more *fault points* — stable dotted names baked into the library
at the places where real deployments fail (``paramserver.push``,
``gateway.dispatch``, ``frontend.dispatch``, ``serve.model.<name>``,
``tune.trial``). Instrumented code calls :func:`repro.chaos.fire` at
those points; with no plan installed that is a single ``None`` check,
with a plan installed the matching rules decide — from seeded,
per-rule RNG streams, so the decision sequence is a pure function of
``(plan seed, call sequence)`` — whether to raise an exception, drop
the response, or add latency.

Every injected fault is appended to the plan's :attr:`FaultPlan.log`
and counted in ``repro_chaos_faults_injected_total``; the log is the
*recovery trace* that chaos tests assert is bit-identical across runs
with the same seed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fnmatch import fnmatchcase

import numpy as np

from repro import telemetry
from repro.exceptions import ConfigurationError, DroppedResponse, InjectedFault

__all__ = ["FaultKind", "FaultRule", "FaultEvent", "FaultPlan"]


class FaultKind(enum.Enum):
    """The three failure modes a rule can inject."""

    EXCEPTION = "exception"
    LATENCY = "latency"
    DROP = "drop"


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: where, what, how often.

    ``point`` is an ``fnmatch``-style pattern over fault-point names
    (``"paramserver.*"`` matches both push and pull). ``probability``
    is evaluated per matching invocation from the rule's own seeded
    stream. ``after`` skips the first N invocations of each matching
    point, and ``max_faults`` caps how many times the rule ever fires,
    so scenarios can script "fail twice, then heal".
    """

    point: str
    kind: FaultKind
    probability: float = 1.0
    #: seconds of latency added when ``kind`` is LATENCY.
    latency: float = 0.05
    #: skip the first ``after`` invocations of each matching point.
    after: int = 0
    #: total number of injections this rule may perform (None = unlimited).
    max_faults: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigurationError(
                f"probability must be in [0, 1], got {self.probability}"
            )
        if self.latency < 0:
            raise ConfigurationError(f"latency must be >= 0, got {self.latency}")
        if self.after < 0:
            raise ConfigurationError(f"after must be >= 0, got {self.after}")
        if self.max_faults is not None and self.max_faults < 0:
            raise ConfigurationError(
                f"max_faults must be >= 0, got {self.max_faults}"
            )

    def matches(self, point: str) -> bool:
        """Whether this rule applies to the named fault point."""
        return fnmatchcase(point, self.point)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, in injection order."""

    #: global injection sequence number (0-based).
    index: int
    #: the concrete fault-point name the fault fired at.
    point: str
    kind: FaultKind
    #: 1-based invocation count of the point when the fault fired.
    invocation: int
    #: latency added (0 for exception/drop faults).
    latency: float = 0.0

    def as_dict(self) -> dict:
        """JSON-friendly form (used by chaos traces and the CLI)."""
        return {
            "index": self.index,
            "point": self.point,
            "kind": self.kind.value,
            "invocation": self.invocation,
            "latency": self.latency,
        }


class FaultPlan:
    """A seeded, deterministic schedule of faults over named points."""

    def __init__(self, rules: list[FaultRule] | tuple[FaultRule, ...] = (), seed: int = 0):
        self.rules = list(rules)
        self.seed = int(seed)
        #: per-rule RNG streams, seeded by (plan seed, rule index) so
        #: adding a rule never perturbs the others' decisions.
        self._rngs = [
            np.random.default_rng(np.random.SeedSequence((self.seed, i)))
            for i in range(len(self.rules))
        ]
        self._fired = [0] * len(self.rules)
        self._invocations: dict[str, int] = {}
        self.log: list[FaultEvent] = []

    # ------------------------------------------------------------------
    # the injection decision
    # ------------------------------------------------------------------

    def fire(self, point: str) -> float:
        """Evaluate every matching rule at ``point``.

        Returns the injected latency in seconds (0.0 when none), raises
        :class:`InjectedFault` for an exception fault and
        :class:`DroppedResponse` for a drop fault. The first matching
        rule that decides to inject wins; rules are consulted in
        declaration order.
        """
        invocation = self._invocations.get(point, 0) + 1
        self._invocations[point] = invocation
        for i, rule in enumerate(self.rules):
            if not rule.matches(point):
                continue
            if invocation <= rule.after:
                continue
            if rule.max_faults is not None and self._fired[i] >= rule.max_faults:
                continue
            if rule.probability < 1.0 and self._rngs[i].random() >= rule.probability:
                continue
            self._fired[i] += 1
            latency = rule.latency if rule.kind is FaultKind.LATENCY else 0.0
            event = FaultEvent(
                index=len(self.log),
                point=point,
                kind=rule.kind,
                invocation=invocation,
                latency=latency,
            )
            self.log.append(event)
            # looked up: a scenario builds its plan before its trace's registry
            telemetry.get_registry().counter(
                "repro_chaos_faults_injected_total",
                "Faults injected by the active plan, by point and kind.",
            ).inc(point=point, kind=rule.kind.value)
            if rule.kind is FaultKind.EXCEPTION:
                raise InjectedFault(f"injected fault at {point} (invocation {invocation})")
            if rule.kind is FaultKind.DROP:
                raise DroppedResponse(
                    f"injected drop at {point} (invocation {invocation})"
                )
            return latency
        return 0.0

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def invocations(self, point: str) -> int:
        """How many times ``point`` has been fired so far."""
        return self._invocations.get(point, 0)

    def faults_injected(self) -> int:
        """Total faults injected by this plan."""
        return len(self.log)

    def trace(self) -> list[dict]:
        """The fault log as JSON-friendly dicts (the recovery trace)."""
        return [event.as_dict() for event in self.log]

    def points_hit(self) -> list[str]:
        """Distinct fault points that injected at least once (sorted)."""
        return sorted({event.point for event in self.log})

    def kinds_hit(self) -> list[str]:
        """Distinct fault kinds injected at least once (sorted)."""
        return sorted({event.kind.value for event in self.log})
