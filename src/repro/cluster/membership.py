"""Group membership: what serving shards, datanodes and the manager share.

A *group* is a fixed set of named members — parameter-server shards,
block-store datanodes — each with a liveness flag, a circuit breaker
and, when the group is cluster-registered, a hosting container. Four
mechanisms are the same for every group and live here once:

* :func:`preference_order` — rendezvous (highest-random-weight)
  hashing: the order in which members are tried for a key. Losing a
  member only moves the keys it ranked first for;
* :func:`failover` — try members in order behind their breakers,
  recording successes and failures, until enough attempts succeed;
* :class:`HostedGroup` — run the members as one spread system job
  under a :class:`~repro.cluster.manager.ClusterManager`, notice
  container deaths, and re-attach replacement containers through the
  manager's recovery hook;
* :func:`silent_members` — the heartbeat-silence scan behind every
  ``detect_failures``.

What a death or a rejoin *means* (drop a cache, re-replicate chunks,
reconcile a disk) stays with the group that owns the members.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro import telemetry
from repro.cluster.container import ContainerRole
from repro.cluster.node import Resources
from repro.exceptions import ConfigurationError, InjectedFault, RetryExhaustedError
from repro.utils.retry import CircuitBreaker

__all__ = [
    "Member",
    "HostedGroup",
    "member_breaker",
    "preference_order",
    "failover",
    "silent_members",
    "FAILOVER_ERRORS",
]

#: exception types that count as "this member failed, try the next one".
FAILOVER_ERRORS = (InjectedFault, RetryExhaustedError)


@dataclass
class Member:
    """One group member: liveness, breaker and hosting bookkeeping."""

    name: str
    breaker: CircuitBreaker
    #: its ``count`` is the member's lifetime deaths (kills + node failures).
    deaths: telemetry.CounterChild
    alive: bool = True
    #: cluster container currently hosting this member (None standalone).
    container_id: str | None = None
    #: cluster node that container runs on.
    node_name: str | None = None


M = TypeVar("M", bound=Member)


def member_breaker(
    factory: Callable[[str], CircuitBreaker] | None, group: str, name: str
) -> CircuitBreaker:
    """``factory(name)``, or the default breaker: 3 failures open it for 30 s."""
    if factory is not None:
        return factory(name)
    return CircuitBreaker(
        name=f"{group}/{name}", failure_threshold=3, recovery_time=30.0
    )


def preference_order(key: str, members: Sequence[M]) -> list[M]:
    """Every member, ordered by ``key``'s rendezvous-hash weight.

    The weight is a stable 64-bit hash of ``key|member`` (independent
    of PYTHONHASHSEED), so the order is a pure function of the names.
    """

    def weight(member: M) -> int:
        digest = hashlib.md5(f"{key}|{member.name}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    return sorted(members, key=lambda m: (-weight(m), m.name))


def failover(
    members: Iterable[M],
    attempt: Callable[[M], Any],
    on_failover: Callable[[M], None],
    want: int = 1,
) -> list[tuple[M, Any]]:
    """Run ``attempt`` on ``members`` in order until ``want`` succeed.

    A member whose breaker is open is skipped without being attempted;
    one that raises a :data:`FAILOVER_ERRORS` feeds its breaker and the
    next member is tried — ``on_failover`` is told about both. Returns
    the ``(member, result)`` pairs that succeeded. With none, the last
    failover error is re-raised; an empty list means every member was
    skipped (or there were none), and the caller names that error.
    """
    done: list[tuple[M, Any]] = []
    last_error: BaseException | None = None
    try:
        for member in members:
            if len(done) >= want:
                break
            if not member.breaker.allow():
                on_failover(member)
                continue
            try:
                result = attempt(member)
            except FAILOVER_ERRORS as exc:
                member.breaker.record_failure()
                on_failover(member)
                last_error = exc
                continue
            member.breaker.record_success()
            done.append((member, result))
        if not done and last_error is not None:
            raise last_error
        return done
    finally:
        last_error = None  # its traceback holds this frame: no cycle


def silent_members(
    last_heartbeat: dict[str, float], alive: Iterable[str], timeout: float
) -> list[str]:
    """Names in ``alive`` silent for longer than ``timeout``.

    The push-based failure detector: members heartbeat in, and silence
    on the injectable telemetry clock is treated as a death. A member
    that never reported is given the benefit of the doubt.
    """
    now = telemetry.get_clock().now()
    return [
        name for name in alive if now - last_heartbeat.get(name, now) > timeout
    ]


class HostedGroup:
    """A group whose members can run as containers of one system job.

    Subclasses set ``_JOB_KIND`` / ``_ROLE``, keep their members in
    ``_members`` and say what a death and a (re)attachment mean through
    :meth:`_member_down` and :meth:`_member_up`.
    """

    _JOB_KIND: Any
    _ROLE: ContainerRole
    _members: list

    #: cluster integration (None when standalone).
    manager = None
    cluster_job_id: str | None = None

    def _member_down(self, member) -> None:
        """Mark ``member`` dead and do whatever its loss requires."""
        raise NotImplementedError

    def _member_up(self, member, same_host: bool) -> None:
        """``member`` is alive again, on its old machine or a new one."""
        raise NotImplementedError

    def register_with_cluster(self, manager, worker_request: Resources | None = None):
        """Host the members as one spread system job under ``manager``.

        Placement is anti-affine, so members land on distinct nodes.
        Node failures — injected directly or noticed by the manager's
        ``detect_failures`` — kill the members they host; the manager's
        recovery hook hands each replacement container back to
        :meth:`_on_container_recovered`.
        """
        if self.manager is not None:
            raise ConfigurationError(
                f"{self._JOB_KIND.value} members are already cluster-registered"
            )
        job = manager.submit_job(
            self._JOB_KIND,
            name=self._JOB_KIND.value,
            num_workers=len(self._members),
            master_request=Resources(cpus=1, gpus=0, memory_gb=4),
            worker_request=worker_request or Resources(cpus=1, gpus=0, memory_gb=8),
            worker_role=self._ROLE,
            spread=True,
            queue=False,
        )
        self.manager = manager
        self.cluster_job_id = job.job_id
        hosts = [c for c in job.containers if c.role is self._ROLE]
        for member, container in zip(self._members, hosts):
            member.container_id = container.container_id
            member.node_name = container.node_name
        manager.on_recovery(self, HostedGroup._on_container_recovered)
        return job

    def _refresh_liveness(self) -> None:
        """Notice container deaths the manager hasn't replaced yet."""
        if self.manager is None:
            return
        for member in self._members:
            if not member.alive or member.container_id is None:
                continue
            container = self.manager.containers.get(member.container_id)
            if container is None or not container.running:
                self._member_down(member)

    def _on_container_recovered(self, container) -> None:
        if container.job_id != self.cluster_job_id:
            return
        member = next(
            (m for m in self._members if m.container_id == container.predecessor),
            None,
        )
        if member is None:
            return
        if member.alive:
            # The hook fires synchronously inside fail_node, possibly
            # before any lazy liveness check noticed the death.
            self._member_down(member)
        same_host = container.node_name == member.node_name
        member.container_id = container.container_id
        member.node_name = container.node_name
        member.alive = True
        self._member_up(member, same_host)
