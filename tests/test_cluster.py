"""Tests for cluster management: placement, failure recovery, messaging."""

import pytest

from repro.cluster import (
    CheckpointStore,
    ClusterManager,
    FailureInjector,
    Mailbox,
    Message,
    MessageType,
    Node,
)
from repro.cluster.container import ContainerState
from repro.cluster.manager import JobKind, JobState
from repro.cluster.node import Resources
from repro.exceptions import ClusterError, PlacementError
from repro.sim import Simulator


class _Owner(list):
    """A list that can be held weakly, as every registered owner is."""


def cluster(num_nodes=3, gpus=3):
    manager = ClusterManager()
    for i in range(num_nodes):
        manager.add_node(Node(f"n{i}", capacity=Resources(cpus=8, gpus=gpus, memory_gb=64)))
    return manager


class TestMailbox:
    def test_fifo_order(self):
        box = Mailbox()
        box.send(Message(MessageType.REQUEST, "w1"))
        box.send(Message(MessageType.REPORT, "w2"))
        assert box.receive().type is MessageType.REQUEST
        assert box.receive().type is MessageType.REPORT
        assert box.receive() is None

    def test_peek_does_not_consume(self):
        box = Mailbox()
        box.send(Message(MessageType.FINISH, "w"))
        assert box.peek().type is MessageType.FINISH
        assert len(box) == 1


class TestResources:
    def test_fits_within(self):
        small = Resources(1, 1, 4)
        big = Resources(8, 3, 64)
        assert small.fits_within(big)
        assert not big.fits_within(small)

    def test_arithmetic(self):
        total = Resources(2, 1, 8) + Resources(1, 1, 8)
        assert total.gpus == 2
        left = total - Resources(1, 0, 4)
        assert left.cpus == 2


class TestPlacement:
    def test_job_colocated_when_it_fits(self):
        manager = cluster()
        job = manager.submit_job(JobKind.TRAIN, "t", num_workers=2)
        nodes = {c.node_name for c in job.containers}
        assert len(nodes) == 1  # master + 2 workers on one node

    def test_job_spills_across_nodes(self):
        manager = cluster(num_nodes=3, gpus=3)
        job = manager.submit_job(JobKind.TRAIN, "big", num_workers=7)
        assert len(job.workers) == 7
        nodes = {c.node_name for c in job.containers}
        assert len(nodes) > 1

    def test_placement_failure_places_nothing(self):
        manager = cluster(num_nodes=1, gpus=2)
        with pytest.raises(PlacementError):
            manager.submit_job(JobKind.TRAIN, "huge", num_workers=5, queue=False)
        # nothing was allocated, and the fail-fast path leaves no record
        assert manager.nodes["n0"].allocated.gpus == 0
        assert manager.jobs == {}

    def test_unplaceable_job_queues_by_default(self):
        manager = cluster(num_nodes=1, gpus=2)
        job = manager.submit_job(JobKind.TRAIN, "huge", num_workers=5)
        assert job.state is JobState.PENDING
        assert job.pending_reason == "capacity"
        assert manager.nodes["n0"].allocated.gpus == 0
        assert manager.pending_jobs() == [job]

    def test_resources_released_on_stop(self):
        manager = cluster()
        job = manager.submit_job(JobKind.TRAIN, "t", num_workers=2)
        manager.stop_job(job.job_id)
        assert all(node.allocated.gpus == 0 for node in manager.nodes.values())
        assert job.state is JobState.STOPPED

    def test_duplicate_node_rejected(self):
        manager = cluster(num_nodes=1)
        with pytest.raises(ClusterError):
            manager.add_node(Node("n0"))


class TestFailureRecovery:
    def test_worker_restarted_on_surviving_node(self):
        manager = cluster(num_nodes=2, gpus=3)
        job = manager.submit_job(JobKind.TRAIN, "t", num_workers=2)
        failed_node = job.containers[0].node_name
        replacements = manager.fail_node(failed_node)
        assert len(replacements) == 3  # master + 2 workers restarted
        assert all(c.node_name != failed_node for c in replacements)
        assert all(c.state is ContainerState.RUNNING for c in replacements)
        assert job.state is JobState.RUNNING
        assert manager.recoveries == 3

    def test_restart_counter_increments(self):
        manager = cluster(num_nodes=2)
        job = manager.submit_job(JobKind.TRAIN, "t", num_workers=1)
        node = job.containers[0].node_name
        manager.fail_node(node)
        assert all(c.restarts == 1 for c in job.containers)

    def test_job_degrades_when_no_capacity_left(self):
        manager = cluster(num_nodes=2, gpus=2)
        job = manager.submit_job(JobKind.TRAIN, "t", num_workers=4)  # uses all gpus
        lost_node = job.containers[0].node_name
        manager.fail_node(lost_node)
        # Insufficient capacity degrades the job instead of failing it;
        # the lost containers are queued until a node comes back.
        assert job.state is JobState.DEGRADED
        started = manager.recover_node(lost_node)
        assert started  # queued restarts drained onto the recovered node
        assert job.state is JobState.RUNNING
        assert all(c.running for c in job.containers)

    @pytest.mark.parametrize("capacity_returns", ["node_joins", "other_job_completes"])
    def test_queued_restarts_drain_whenever_capacity_returns(self, capacity_returns):
        manager = cluster(num_nodes=2, gpus=2)
        job = manager.submit_job(JobKind.TRAIN, "a", num_workers=2)  # fills one node
        other = manager.submit_job(JobKind.TRAIN, "b", num_workers=2)  # and the other
        manager.fail_node(job.containers[0].node_name)
        assert job.state is JobState.DEGRADED  # both workers wait for GPUs
        if capacity_returns == "node_joins":
            manager.add_node(Node("n2", capacity=Resources(cpus=8, gpus=2, memory_gb=64)))
        else:
            manager.complete_job(other.job_id)
        assert job.state is JobState.RUNNING
        assert len(job.containers) == 3 and all(c.running for c in job.containers)

    def test_managers_number_independently_and_restarts_chain(self):
        first, second = cluster(num_nodes=2), cluster(num_nodes=2)
        jobs = [m.submit_job(JobKind.TRAIN, "t", num_workers=1) for m in (first, second)]
        assert [job.job_id for job in jobs] == ["job-1", "job-1"]
        assert [[c.container_id for c in job.containers] for job in jobs] == [
            ["ctr-1", "ctr-2"], ["ctr-1", "ctr-2"]]
        replacements = first.fail_node(jobs[0].containers[0].node_name)
        assert [(c.container_id, c.predecessor) for c in replacements] == [
            ("ctr-3", "ctr-1"), ("ctr-4", "ctr-2")]
        assert set(first.containers) == {"ctr-1", "ctr-2", "ctr-3", "ctr-4"}
        assert second.submit_job(JobKind.TRAIN, "u").job_id == "job-2"

    def test_recovery_hook_invoked(self):
        manager = cluster(num_nodes=2)
        restarted = _Owner()
        manager.on_recovery(restarted, list.append)
        job = manager.submit_job(JobKind.TRAIN, "t", num_workers=1)
        manager.fail_node(job.containers[0].node_name)
        assert len(restarted) == 2

    def test_recover_node_rejoins(self):
        manager = cluster(num_nodes=2)
        manager.fail_node("n0")
        assert len(manager.alive_nodes()) == 1
        manager.recover_node("n0")
        assert len(manager.alive_nodes()) == 2

    def test_unknown_node_raises(self):
        with pytest.raises(ClusterError):
            cluster().fail_node("ghost")


class TestCheckpointStore:
    def test_save_restore_roundtrip(self):
        store = CheckpointStore()
        store.save("master", {"best": 0.9, "num": 3})
        assert store.restore("master") == {"best": 0.9, "num": 3}

    def test_restore_is_deep_copy(self):
        store = CheckpointStore()
        live = {"trials": [1, 2]}
        store.save("m", live)
        live["trials"].append(3)
        assert store.restore("m") == {"trials": [1, 2]}

    def test_versions_and_retention(self):
        store = CheckpointStore()
        for i in range(4):
            store.save("m", i)
        assert store.versions("m") == 3
        assert store.restore("m") == 3
        assert store.restore("m", version=1) == 1

    def test_missing_owner_raises(self):
        with pytest.raises(ClusterError):
            CheckpointStore().restore("ghost")


class TestFailureInjector:
    def test_scheduled_failure_and_recovery(self):
        manager = cluster(num_nodes=2)
        sim = Simulator()
        injector = FailureInjector(manager)
        injector.schedule_failure(sim, delay=5.0, node_name="n0", recover_after=10.0)
        sim.run(until=6.0)
        assert not manager.nodes["n0"].alive
        sim.run(until=20.0)
        assert manager.nodes["n0"].alive
