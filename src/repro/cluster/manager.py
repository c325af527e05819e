"""The Rafiki manager: placement, job lifecycle, failure recovery.

Placement follows the paper's stated preference: a job's master and
workers are co-located on one physical node when it fits, to avoid
network communication overhead; otherwise containers spill over to the
emptiest nodes (worst-fit, which balances load across the cluster).
"""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro import telemetry
from repro.cluster.checkpoint import CheckpointStore
from repro.cluster.container import Container, ContainerRole, ContainerState
from repro.cluster.membership import silent_members
from repro.cluster.node import Node, Resources
from repro.exceptions import (
    ClusterError,
    JobNotFoundError,
    PlacementError,
    QuotaExceededError,
    TenantAccessError,
)
from repro.tenancy import DEFAULT_TENANT, TenantRegistry
from repro.utils.owners import WeakReader, live

__all__ = ["ClusterManager", "JobRecord", "JobKind", "JobState"]


class JobKind(enum.Enum):
    TRAIN = "train"
    INFERENCE = "inference"
    #: system job hosting parameter-server shards (Figure 7's storage boxes).
    PARAMSERVER = "paramserver"
    #: system job hosting block-store datanodes (the HDFS-shaped layer).
    DATASTORE = "datastore"


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    STOPPED = "stopped"
    #: running with fewer containers than requested — a failed container
    #: could not be restarted for lack of capacity and is queued until a
    #: node recovers (graceful degradation instead of failing the job).
    DEGRADED = "degraded"


#: governed quota resource per job kind (system jobs are uncounted).
_QUOTA_RESOURCE = {JobKind.TRAIN: "trials", JobKind.INFERENCE: "replicas"}
#: states in which a job's containers are placed (and count against quota).
_PLACED = (JobState.RUNNING, JobState.DEGRADED)


@dataclass
class JobRecord:
    """Book-keeping for one submitted job."""

    job_id: str
    kind: JobKind
    name: str
    containers: list[Container] = field(default_factory=list)
    state: JobState = JobState.PENDING
    #: owning tenant; quota holdings and fair-share accounting key off this.
    tenant: str = DEFAULT_TENANT
    #: higher runs earlier among jobs of the same tenant in the pending queue.
    priority: int = 0
    #: anti-affinity preference, remembered so queued jobs place correctly.
    spread: bool = False
    #: why the job is queued (``"quota"`` or ``"capacity"``), while PENDING.
    pending_reason: str | None = None

    @property
    def workers(self) -> list[Container]:
        return [c for c in self.containers if c.role is ContainerRole.WORKER]


class ClusterManager:
    """Places containers on nodes and recovers from failures."""

    def __init__(
        self,
        checkpoint_store: CheckpointStore | None = None,
        tenants: TenantRegistry | None = None,
    ):
        self.nodes: dict[str, Node] = {}
        self.jobs: dict[str, JobRecord] = {}
        self.containers: dict[str, Container] = {}
        self.checkpoints = checkpoint_store if checkpoint_store is not None else CheckpointStore()
        #: quota + fair-share authority; ``None`` disables enforcement.
        self.tenants = tenants
        if tenants is not None:
            for kind, resource in _QUOTA_RESOURCE.items():
                tenants.ledger.govern(
                    resource, self, functools.partial(ClusterManager._held, kind=kind)
                )
        #: ``job-N`` / ``ctr-N`` sequence numbers, unique within this manager.
        self._job_ids = itertools.count(1)
        self._container_ids = itertools.count(1)
        #: each recovery hook's owner, held weakly, with the hook.
        self._recovery_hooks: list[WeakReader] = []
        #: failed containers waiting for capacity, oldest first.
        self._pending_restarts: list[Container] = []
        #: submitted jobs waiting for quota or capacity, oldest first.
        self._pending_jobs: list[JobRecord] = []
        #: last heartbeat per node, on the injectable telemetry clock.
        self.last_heartbeat: dict[str, float] = {}
        registry = telemetry.get_registry()
        self._heartbeats, self._submitted, self._queued, failures, restarts = (
            telemetry.Counter(name, help, registry) for name, help in (
                ("repro_cluster_heartbeats_total", "Node liveness heartbeats received."),
                ("repro_cluster_jobs_submitted_total",
                 "Jobs submitted to the cluster, by kind and tenant."),
                ("repro_cluster_jobs_queued_total",
                 "Jobs queued instead of placed, by tenant and reason."),
                ("repro_cluster_node_failures_total", "Node failures observed."),
                ("repro_cluster_recoveries_total",
                 "Containers restarted after a node failure."),
            )
        )
        self._node_failures, self._restarted = failures.labels(), restarts.labels()
        registry.gauge(
            "repro_cluster_nodes_alive", "Nodes currently alive."
        ).set_function(self, lambda manager: len(manager.alive_nodes()))
        registry.gauge(
            "repro_cluster_nodes_total", "Nodes registered with the manager."
        ).set_function(self, lambda manager: len(manager.nodes))
        registry.gauge(
            "repro_cluster_pending_jobs",
            "Submitted jobs waiting for quota or capacity.",
        ).set_function(self, lambda manager: len(manager._pending_jobs))
        registry.gauge(
            "repro_cluster_pending_restarts",
            "Failed containers waiting for cluster capacity.",
        ).set_function(self, lambda manager: len(manager._pending_restarts))

    # ------------------------------------------------------------------
    # cluster topology
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> None:
        if node.name in self.nodes:
            raise ClusterError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        self.last_heartbeat[node.name] = telemetry.get_clock().now()
        self._drain_pending_restarts()
        self._schedule_pending()

    def heartbeat(self, node_name: str) -> bool:
        """Record a liveness heartbeat from ``node_name``.

        Returns whether the node is currently alive. The dashboard's
        node table and the ``repro_cluster_heartbeats_total`` counter
        are fed from here.
        """
        node = self.nodes.get(node_name)
        if node is None:
            raise ClusterError(f"unknown node {node_name!r}")
        self.last_heartbeat[node_name] = telemetry.get_clock().now()
        self._heartbeats.inc(node=node_name)
        return node.alive

    def detect_failures(self, timeout: float) -> list[str]:
        """Fail every alive node whose last heartbeat is older than ``timeout``.

        This is the push-based failure detector: nodes heartbeat into
        the manager, and a silence longer than ``timeout`` seconds (on
        the injectable telemetry clock) is treated as a node failure —
        the node's containers are recovered exactly as in
        :meth:`fail_node`. Returns the names of newly failed nodes.
        """
        stale = silent_members(
            self.last_heartbeat,
            sorted(name for name, node in self.nodes.items() if node.alive),
            timeout,
        )
        for name in stale:
            self.fail_node(name)
        return stale

    def alive_nodes(self) -> list[Node]:
        return [node for node in self.nodes.values() if node.alive]

    # ------------------------------------------------------------------
    # job submission
    # ------------------------------------------------------------------

    def submit_job(
        self,
        kind: JobKind,
        name: str,
        num_workers: int = 1,
        master_request: Resources | None = None,
        worker_request: Resources | None = None,
        worker_role: ContainerRole = ContainerRole.WORKER,
        spread: bool = False,
        tenant: str = DEFAULT_TENANT,
        priority: int = 0,
        queue: bool = True,
    ) -> JobRecord:
        """Create containers for a job and place them.

        One master plus ``num_workers`` workers (``worker_role`` lets
        system jobs mark them e.g. ``PARAMETER`` shards). ``spread=True``
        skips the single-node co-location preference *and* enforces
        anti-affinity: replicated storage wants its containers on
        *different* nodes, the opposite of a tuning job's
        network-locality preference.

        When the tenant is over quota or the cluster lacks capacity the
        job is *queued* (returned in :attr:`JobState.PENDING`, no
        containers placed) and scheduled later in max-min fair-share
        order as resources free up. ``queue=False`` restores the old
        fail-fast contract — :class:`QuotaExceededError` /
        :class:`PlacementError` — for system jobs whose callers need
        containers immediately.
        """
        if num_workers < 0:
            raise ClusterError(f"num_workers must be >= 0, got {num_workers}")
        if self.tenants is not None:
            self.tenants.resolve(tenant)
        master_request = master_request or Resources(cpus=1, gpus=0, memory_gb=4)
        worker_request = worker_request or Resources(cpus=1, gpus=1, memory_gb=8)
        if not queue and self._outgrows_free(master_request, worker_request, num_workers):
            # Refused before one container is built: a count in a request
            # body must not cost memory in proportion to itself. The quota
            # refusal comes first, as on the full path.
            self._quota_check(kind, tenant, num_workers)
            raise PlacementError(
                f"{num_workers} workers of {worker_request} exceed the free "
                f"capacity of the alive nodes"
            )
        job_id = f"job-{next(self._job_ids)}"
        containers = [
            self._new_container(image=f"rafiki/{kind.value}-master",
                                role=ContainerRole.MASTER,
                                job_id=job_id, request=master_request)
        ] + [
            self._new_container(image=f"rafiki/{kind.value}-worker",
                                role=worker_role,
                                job_id=job_id, request=worker_request)
            for _ in range(num_workers)
        ]
        job = JobRecord(
            job_id=job_id, kind=kind, name=name, containers=containers,
            tenant=tenant, priority=int(priority),
            spread=spread,
        )
        self.jobs[job_id] = job
        self._submitted.inc(kind=kind.value, tenant=tenant)
        try:
            self._quota_check(job.kind, job.tenant, len(job.workers))
        except Exception:
            if not queue:
                del self.jobs[job_id]
                raise
            self._enqueue_pending(job, reason="quota")
            return job
        try:
            self._activate(job)
        except PlacementError:
            if not queue:
                del self.jobs[job_id]
                raise
            self._enqueue_pending(job, reason="capacity")
        return job

    def _outgrows_free(self, master: Resources, worker: Resources, num_workers: int) -> bool:
        """Whether a master and ``num_workers`` workers need more of some
        resource than the alive nodes have free together, which no
        placement can beat (the division keeps a huge count exact)."""
        free = Resources(0, 0, 0)
        for node in self.alive_nodes():
            free = free + node.free
        room = free - master
        slack = 1e-9 * (len(self.nodes) + 1)
        return any(
            need > 0 and num_workers > (have + slack) / need or have < -slack
            for need, have in ((worker.cpus, room.cpus), (worker.gpus, room.gpus),
                               (worker.memory_gb, room.memory_gb))
        )

    def _new_container(self, **fields) -> Container:
        return Container(container_id=f"ctr-{next(self._container_ids)}", **fields)

    def _quota_check(self, kind: JobKind, tenant: str, workers: int) -> None:
        """Raise if placing ``workers`` more of ``kind`` would take ``tenant`` over quota."""
        resource = _QUOTA_RESOURCE.get(kind)
        if self.tenants is None or resource is None:
            return
        self.tenants.check(tenant, resource, workers)

    def _held(self, tenant: str, kind: JobKind) -> int:
        """Workers of ``tenant``'s placed jobs of ``kind`` (its quota holding)."""
        return sum(
            len(job.workers) for job in self.jobs.values()
            if job.kind is kind and job.state in _PLACED and job.tenant == tenant
        )

    def _activate(self, job: JobRecord) -> None:
        """Place all of a job's containers; from then on they hold quota.

        Raises :class:`PlacementError` (placing nothing) if the full
        job does not fit on the alive nodes.
        """
        placements = self._plan_placement(job.containers, spread=job.spread)
        for container, node in zip(job.containers, placements):
            node.allocate(container.container_id, container.request)
            container.node_name = node.name
            container.state = ContainerState.RUNNING
            self.containers[container.container_id] = container
        job.state = JobState.RUNNING
        job.pending_reason = None
        resource = _QUOTA_RESOURCE.get(job.kind)
        if self.tenants is not None and resource is not None:
            self.tenants.ledger.admit(job.tenant, resource)

    def _plan_placement(self, containers: list[Container], spread: bool = False) -> list[Node]:
        """Choose a node per container, co-locating the job when possible."""
        # First try to fit the whole job onto a single alive node
        # (skipped for spread jobs, which want anti-affinity).
        total = Resources(0, 0, 0)
        for container in containers:
            total = total + container.request
        if not spread:
            for node in self._nodes_by_free():
                if node.can_host(total):
                    return [node] * len(containers)
        # Otherwise spread greedily, simulating the allocation without
        # mutating nodes. Nodes already planned for this job sort last
        # (anti-affinity): a single over-provisioned node must not
        # absorb every replica of a spread job, or the block store's
        # host-diversity assumption silently breaks.
        free: dict[str, Resources] = {n.name: n.free for n in self.alive_nodes()}
        planned: dict[str, int] = {}
        plan: list[Node] = []
        for container in containers:
            candidates = sorted(
                (node for node in self.alive_nodes()
                 if container.request.fits_within(free[node.name])),
                key=lambda n: (
                    planned.get(n.name, 0) if spread else 0,
                    -free[n.name].gpus, -free[n.name].cpus, n.name,
                ),
            )
            if not candidates:
                raise PlacementError(
                    f"no node can host {container.request} for {container.image!r}"
                )
            chosen = candidates[0]
            free[chosen.name] = free[chosen.name] - container.request
            planned[chosen.name] = planned.get(chosen.name, 0) + 1
            plan.append(chosen)
        return plan

    def _nodes_by_free(self) -> list[Node]:
        return sorted(
            self.alive_nodes(),
            key=lambda n: (-n.free.gpus, -n.free.cpus, n.name),
        )

    # ------------------------------------------------------------------
    # pending-job queue and fair-share scheduling
    # ------------------------------------------------------------------

    def pending_jobs(self) -> list[JobRecord]:
        """Jobs queued for quota or capacity, in arrival order."""
        return list(self._pending_jobs)

    def _enqueue_pending(self, job: JobRecord, reason: str) -> None:
        job.state = JobState.PENDING
        job.pending_reason = reason
        self._pending_jobs.append(job)
        self._queued.inc(tenant=job.tenant, reason=reason)

    def _tenant_allocation(self) -> dict[str, Resources]:
        """Resources currently held by each tenant's active jobs."""
        allocation: dict[str, Resources] = {}
        for job in self.jobs.values():
            if job.state not in _PLACED:
                continue
            for container in job.containers:
                if container.node_name is None or container.state is not ContainerState.RUNNING:
                    continue
                current = allocation.get(job.tenant, Resources(0, 0, 0))
                allocation[job.tenant] = current + container.request
        return allocation

    def _dominant_share(self, tenant: str, allocation: dict[str, Resources]) -> float:
        """Dominant-resource share of ``tenant`` (DRF): its largest share
        of any one resource over the alive nodes."""
        total = Resources(0, 0, 0)
        for node in self.alive_nodes():
            total = total + node.capacity
        held = allocation.get(tenant, Resources(0, 0, 0))
        shares = [
            held.cpus / total.cpus if total.cpus else 0.0,
            held.gpus / total.gpus if total.gpus else 0.0,
            held.memory_gb / total.memory_gb if total.memory_gb else 0.0,
        ]
        return max(shares)

    def _rank_pending(self) -> list[JobRecord]:
        """Pending jobs in max-min fair order.

        The tenant holding the smallest dominant-resource share goes
        first (max-min fairness over dominant resources); within a
        tenant, higher ``priority`` then FIFO arrival order.
        """
        allocation = self._tenant_allocation()
        shares = {
            tenant: self._dominant_share(tenant, allocation)
            for tenant in {job.tenant for job in self._pending_jobs}
        }
        arrival = {id(job): index for index, job in enumerate(self._pending_jobs)}
        return sorted(
            self._pending_jobs,
            key=lambda job: (shares[job.tenant], -job.priority, arrival[id(job)]),
        )

    def _schedule_pending(self) -> None:
        """Drain the pending queue while quota and capacity allow.

        Re-ranks after every successful placement so the fair-share
        ordering reflects the resources the previous pick just took.
        """
        progressed = True
        while progressed and self._pending_jobs:
            progressed = False
            for job in self._rank_pending():
                try:
                    self._quota_check(job.kind, job.tenant, len(job.workers))
                    self._activate(job)
                except (PlacementError, QuotaExceededError, TenantAccessError):
                    continue
                self._pending_jobs.remove(job)
                progressed = True
                break

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def get_job(self, job_id: str) -> JobRecord:
        if job_id not in self.jobs:
            raise JobNotFoundError(job_id)
        return self.jobs[job_id]

    def stop_job(self, job_id: str, state: JobState = JobState.STOPPED) -> None:
        job = self.get_job(job_id)
        if job in self._pending_jobs:
            self._pending_jobs.remove(job)
        for container in job.containers:
            self._release(container, ContainerState.STOPPED)
        # Drop queued restarts for this job: a stopped job must not
        # resurrect containers when a node later recovers.
        self._pending_restarts = [
            c for c in self._pending_restarts if c.job_id != job_id
        ]
        job.state = state
        self._drain_pending_restarts()
        self._schedule_pending()

    def complete_job(self, job_id: str) -> None:
        self.stop_job(job_id, state=JobState.COMPLETED)

    def _release(self, container: Container, state: ContainerState) -> None:
        if container.node_name is not None:
            node = self.nodes.get(container.node_name)
            if node is not None:
                node.release(container.container_id, container.request)
        container.state = state

    # ------------------------------------------------------------------
    # failure recovery
    # ------------------------------------------------------------------

    @property
    def recoveries(self) -> int:
        """Containers ever restarted after a node failure."""
        return self._restarted.count

    def on_recovery(self, owner, hook: Callable[[object, Container], None]) -> None:
        """Call ``hook(owner, container)`` with every restarted container
        while ``owner`` lives."""
        self._recovery_hooks.append(WeakReader(owner, hook))

    def fail_node(self, node_name: str) -> list[Container]:
        """Fail a node and recover its containers elsewhere.

        Stateless workers (and masters, whose small state lives in the
        checkpoint store) are restarted as *new* containers on surviving
        nodes. Returns the replacement containers. Containers that do
        not fit anywhere stay queued, their job runs DEGRADED, and the
        restart is retried whenever capacity returns (a node recovers
        or joins, a job stops).
        """
        if node_name not in self.nodes:
            raise ClusterError(f"unknown node {node_name!r}")
        lost_ids = self.nodes[node_name].fail()
        self._node_failures.inc()
        replacements: list[Container] = []
        for container_id in sorted(lost_ids):
            container = self.containers[container_id]
            container.state = ContainerState.FAILED
            replacement = self._restart(container)
            if replacement is not None:
                replacements.append(replacement)
        return replacements

    def _restart(self, failed: Container) -> Container | None:
        job = self.jobs.get(failed.job_id)
        if job is None or job.state not in _PLACED:
            return None
        replacement = self._new_container(
            image=failed.image,
            role=failed.role,
            job_id=failed.job_id,
            request=failed.request,
            restarts=failed.restarts + 1,
            predecessor=failed.container_id,
        )
        for node in self._nodes_by_free():
            if node.can_host(replacement.request):
                node.allocate(replacement.container_id, replacement.request)
                replacement.node_name = node.name
                replacement.state = ContainerState.RUNNING
                job.containers.remove(failed)
                job.containers.append(replacement)
                self.containers[replacement.container_id] = replacement
                self._restarted.inc()
                for owner, hook in live(self._recovery_hooks):
                    hook(owner, replacement)
                return replacement
        # Insufficient capacity: degrade instead of failing the whole
        # job, and queue the restart for when a node comes back.
        job.state = JobState.DEGRADED
        self._pending_restarts.append(failed)
        return None

    def _drain_pending_restarts(self) -> list[Container]:
        """Retry the queued restarts now that capacity may have come back.

        Jobs whose queued containers all restart move back from DEGRADED
        to RUNNING. Returns the containers started.
        """
        if not self._pending_restarts:
            return []
        pending, self._pending_restarts = self._pending_restarts, []
        started = [c for c in map(self._restart, pending) if c is not None]
        still_queued = {c.job_id for c in self._pending_restarts}
        for job_id in {c.job_id for c in started} - still_queued:
            self.jobs[job_id].state = JobState.RUNNING
        return started

    def recover_node(self, node_name: str) -> list[Container]:
        """Bring a node back and drain queued restarts onto it.

        Returns the containers started from the pending-restart queue.
        """
        if node_name not in self.nodes:
            raise ClusterError(f"unknown node {node_name!r}")
        self.nodes[node_name].recover()
        self.last_heartbeat[node_name] = telemetry.get_clock().now()
        started = self._drain_pending_restarts()
        self._schedule_pending()
        return started

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterManager(nodes={len(self.nodes)}, jobs={len(self.jobs)}, "
            f"recoveries={self.recoveries})"
        )
