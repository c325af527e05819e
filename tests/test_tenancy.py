"""Multi-tenant control plane: quotas, fair share, isolation, regressions."""

import asyncio
import importlib
import os
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.api import sdk
from repro.api.gateway import Gateway, make_query_executor
from repro.cluster import ClusterManager, Node
from repro.cluster.manager import JobKind, JobState
from repro.cluster.node import Resources
from repro.core.system import Rafiki
from repro.core.tune import HyperConf
from repro.data import make_image_classification
from repro.data.store import DataStore
from repro.exceptions import (
    ConfigurationError,
    DatasetNotFoundError,
    GatewayError,
    ParameterNotFoundError,
    PlacementError,
    QuotaExceededError,
    StorageError,
    TenantAccessError,
)
from repro.paramserver import ParameterServer
from repro.tenancy import (
    DEFAULT_TENANT,
    TenantQuota,
    TenantRegistry,
    current_tenant,
    tenant_context,
)


@pytest.fixture()
def dataset():
    return make_image_classification(
        name="food", num_classes=3, image_shape=(3, 8, 8),
        train_per_class=12, val_per_class=6, test_per_class=6,
        difficulty=0.3, seed=11,
    )


def quick_hyper():
    return HyperConf(max_trials=2, max_epochs_per_trial=3, early_stop_patience=3)


class TestTenantRegistry:
    def test_default_tenant_preregistered(self):
        registry = TenantRegistry()
        assert registry.resolve(DEFAULT_TENANT).name == DEFAULT_TENANT

    def test_lenient_mode_autoregisters(self):
        registry = TenantRegistry()
        assert registry.resolve("newcomer").name == "newcomer"

    def test_strict_mode_refuses_unknown(self):
        registry = TenantRegistry(strict=True)
        with pytest.raises(TenantAccessError):
            registry.resolve("ghost")

    def test_suspend_and_reinstate(self):
        registry = TenantRegistry()
        registry.register("acme")
        registry.suspend("acme")
        with pytest.raises(TenantAccessError):
            registry.resolve("acme")
        registry.reinstate("acme")
        assert registry.resolve("acme").active

    def test_quota_denial_counts_and_raises(self):
        registry = TenantRegistry()
        registry.register("acme", quota=TenantQuota(trials=2))
        holder = ClusterManager(tenants=registry)
        holder.add_node(Node("n0", capacity=Resources(cpus=8, gpus=4, memory_gb=64)))
        holder.submit_job(JobKind.TRAIN, "a", num_workers=2, tenant="acme")
        with pytest.raises(QuotaExceededError) as excinfo:
            registry.check("acme", "trials", 1)
        assert excinfo.value.tenant == "acme"
        assert excinfo.value.resource == "trials"
        denials = telemetry.get_registry().counter(
            "repro_tenant_quota_denials_total", "denials"
        )
        assert denials.value(tenant="acme", resource="trials") == 1

    def test_release_floors_at_zero_and_unlimited_passes(self):
        registry = TenantRegistry()
        server = ParameterServer(tenants=registry)
        with tenant_context("acme"):
            server.put("ckpt", {"w": np.zeros(16)})
        server.delete("ckpt")
        with pytest.raises(ParameterNotFoundError):
            server.delete("ckpt")  # a second delete frees nothing more
        assert registry.ledger.usage("acme", "ps_bytes") == 0.0
        registry.check("acme", "ps_bytes", 10**12)  # unlimited: no raise

    def test_unknown_resource_rejected(self):
        with pytest.raises(ValueError):
            TenantQuota().limit("electricity")

    def test_ledger_snapshot_and_usage_gauge(self):
        registry = TenantRegistry()
        store = DataStore("hdfs", tenants=registry)
        with tenant_context("acme"):
            store.put_blob("a/blob", b"x" * 64)
        assert registry.ledger.snapshot() == {"acme": {"store_bytes": 64.0}}
        gauge = telemetry.get_registry().gauge("repro_tenant_usage", "usage")
        assert gauge.value(tenant="acme", resource="store_bytes") == 64.0

    def test_reregistering_keeps_a_suspension(self):
        # Regression: register() built a fresh, active Tenant, so changing
        # a suspended tenant's quota silently reinstated it.
        registry = TenantRegistry()
        registry.register("acme")
        registry.suspend("acme")
        registry.register("acme", quota=TenantQuota(trials=4))
        with pytest.raises(TenantAccessError):
            registry.resolve("acme")
        registry.reinstate("acme")
        assert registry.resolve("acme").quota.trials == 4

    def test_ledger_write_stubs_raise_and_the_e2e_harness_still_wraps_them(
        self, monkeypatch
    ):
        """The frozen end-to-end harness wraps ``ledger.charge``/``release``
        by name; both are stubs that point at ``govern``."""
        e2e = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
        monkeypatch.syspath_prepend(str(e2e))
        # calib pins BLAS threads through the environment on import
        monkeypatch.setattr(os, "environ", dict(os.environ))
        harness = importlib.import_module("harness")
        spans = importlib.import_module("spans")
        registry = TenantRegistry()
        harness.trace_tenants(spans.Tracer(), registry)
        for name in ("charge", "release"):
            stub = getattr(registry.ledger, name)
            assert hasattr(stub, "__wrapped__")  # installed
            with pytest.raises(TypeError, match="govern"):
                stub("acme", "trials", 1)

    def test_tenant_context_is_scoped(self):
        assert current_tenant() == DEFAULT_TENANT
        with tenant_context("acme"):
            assert current_tenant() == "acme"
            with tenant_context("globex"):
                assert current_tenant() == "globex"
            assert current_tenant() == "acme"
        assert current_tenant() == DEFAULT_TENANT


class TestQuotaScheduling:
    def cluster(self, tenants=None, num_nodes=3, gpus=3):
        manager = ClusterManager(tenants=tenants)
        for i in range(num_nodes):
            manager.add_node(
                Node(f"n{i}", capacity=Resources(cpus=8, gpus=gpus, memory_gb=64))
            )
        return manager

    def test_over_quota_job_queues_then_drains(self):
        tenants = TenantRegistry()
        tenants.register("acme", quota=TenantQuota(trials=2))
        manager = self.cluster(tenants)
        first = manager.submit_job(JobKind.TRAIN, "a", num_workers=2, tenant="acme")
        second = manager.submit_job(JobKind.TRAIN, "b", num_workers=2, tenant="acme")
        assert first.state is JobState.RUNNING
        assert second.state is JobState.PENDING
        assert second.pending_reason == "quota"
        manager.stop_job(first.job_id)
        assert second.state is JobState.RUNNING
        assert manager.pending_jobs() == []

    def test_queue_false_fails_fast_on_quota(self):
        tenants = TenantRegistry()
        tenants.register("acme", quota=TenantQuota(trials=1))
        manager = self.cluster(tenants)
        with pytest.raises(QuotaExceededError):
            manager.submit_job(
                JobKind.TRAIN, "big", num_workers=2, tenant="acme", queue=False
            )
        assert manager.jobs == {}
        assert tenants.ledger.usage("acme", "trials") == 0.0

    def test_quota_released_on_stop_only_if_charged(self):
        tenants = TenantRegistry()
        tenants.register("acme", quota=TenantQuota(trials=4))
        manager = self.cluster(tenants)
        job = manager.submit_job(JobKind.TRAIN, "a", num_workers=3, tenant="acme")
        assert tenants.ledger.usage("acme", "trials") == 3.0
        manager.stop_job(job.job_id)
        assert tenants.ledger.usage("acme", "trials") == 0.0
        manager.stop_job(job.job_id)  # double stop must not go negative
        assert tenants.ledger.usage("acme", "trials") == 0.0

    def test_pending_job_holds_no_quota(self):
        tenants = TenantRegistry()
        tenants.register("acme", quota=TenantQuota(trials=1))
        manager = self.cluster(tenants)
        manager.submit_job(JobKind.TRAIN, "a", num_workers=1, tenant="acme")
        queued = manager.submit_job(JobKind.TRAIN, "b", num_workers=1, tenant="acme")
        assert queued.state is JobState.PENDING
        assert tenants.ledger.usage("acme", "trials") == 1.0
        manager.stop_job(queued.job_id)  # stopping a pending job releases nothing
        assert tenants.ledger.usage("acme", "trials") == 1.0

    def test_fair_share_prefers_smaller_tenant(self):
        tenants = TenantRegistry()
        manager = self.cluster(tenants)
        # acme holds 6 of 9 gpus, globex 2; both queue one more job.
        acme1 = manager.submit_job(JobKind.TRAIN, "a1", num_workers=3, tenant="acme")
        manager.submit_job(JobKind.TRAIN, "a2", num_workers=3, tenant="acme")
        manager.submit_job(JobKind.TRAIN, "g1", num_workers=2, tenant="globex")
        acme3 = manager.submit_job(JobKind.TRAIN, "a3", num_workers=3, tenant="acme")
        globex2 = manager.submit_job(JobKind.TRAIN, "g2", num_workers=3, tenant="globex")
        assert acme3.state is JobState.PENDING
        assert globex2.state is JobState.PENDING
        # Freeing acme's first job leaves room for exactly one pending
        # job; max-min fairness picks globex (smaller dominant share)
        # even though acme's job queued first.
        manager.stop_job(acme1.job_id)
        assert globex2.state is JobState.RUNNING
        assert acme3.state is JobState.PENDING

    def test_pending_order_pin(self):
        # Three tenants hold uneven allocations with different dominant
        # resources (cpus, gpus, memory). The ranking, each tenant's
        # share and the order the queue drains in are pinned exactly.
        manager = ClusterManager(tenants=TenantRegistry())
        manager.add_node(Node("n0", capacity=Resources(cpus=16, gpus=4, memory_gb=96)))
        manager.add_node(Node("n1", capacity=Resources(cpus=8, gpus=4, memory_gb=48)))
        requests = {
            "acme": Resources(cpus=3, gpus=0, memory_gb=4),
            "globex": Resources(cpus=1, gpus=1, memory_gb=6),
            "initech": Resources(cpus=1, gpus=0, memory_gb=20),
        }
        held = [
            manager.submit_job(JobKind.TRAIN, f"{tenant[0]}-held", num_workers=workers,
                               tenant=tenant, worker_request=requests[tenant])
            for tenant, workers in (("acme", 3), ("globex", 5), ("initech", 2))
        ]
        assert all(job.state is JobState.RUNNING for job in held)
        for name, workers, priority in [
            ("a1", 4, 0), ("g1", 4, 1), ("i1", 3, 0), ("a2", 2, 3), ("g2", 3, 0), ("i2", 2, 2),
        ]:
            tenant = {"a": "acme", "g": "globex", "i": "initech"}[name[0]]
            job = manager.submit_job(JobKind.TRAIN, name, num_workers=workers, tenant=tenant,
                                     worker_request=requests[tenant], priority=priority)
            assert job.state is JobState.PENDING

        def state():
            allocation = manager._tenant_allocation()
            shares = [manager._dominant_share(t, allocation) for t in sorted(requests)]
            return shares, [job.name for job in manager._rank_pending()]

        def running():
            return {job.name for job in manager.jobs.values() if job.state is JobState.RUNNING}

        steps = [state()]
        for job in held:
            before = running()
            manager.stop_job(job.job_id)
            steps.append((sorted(running() - before), *state()))
        assert steps == [
            ([0.4166666666666667, 0.625, 0.3055555555555556],
             ["i2", "i1", "a2", "a1", "g1", "g2"]),
            (["a2", "i2"], [0.2916666666666667, 0.625, 0.6111111111111112],
             ["a1", "i1", "g1", "g2"]),
            (["g1"], [0.2916666666666667, 0.5, 0.6111111111111112], ["a1", "g2", "i1"]),
            (["g2"], [0.2916666666666667, 0.875, 0.3055555555555556], ["a1", "i1"]),
        ]

    def test_priority_breaks_ties_within_tenant(self):
        manager = self.cluster(num_nodes=1, gpus=2)
        running = manager.submit_job(JobKind.TRAIN, "hold", num_workers=2)
        low = manager.submit_job(JobKind.TRAIN, "low", num_workers=2, priority=0)
        high = manager.submit_job(JobKind.TRAIN, "high", num_workers=2, priority=5)
        assert low.state is high.state is JobState.PENDING
        manager.stop_job(running.job_id)
        assert high.state is JobState.RUNNING
        assert low.state is JobState.PENDING

    def test_add_node_drains_pending(self):
        manager = self.cluster(num_nodes=1, gpus=1)
        queued = manager.submit_job(JobKind.TRAIN, "big", num_workers=3)
        assert queued.state is JobState.PENDING
        manager.add_node(Node("n9", capacity=Resources(cpus=8, gpus=4, memory_gb=64)))
        assert queued.state is JobState.RUNNING

    def test_suspended_tenant_queued_job_does_not_wedge_scheduling(self):
        # Regression: _dominant_share used to resolve() the tenant,
        # so a suspended tenant with a queued job made every
        # add_node/stop_job raise TenantAccessError.
        tenants = TenantRegistry()
        tenants.register("noisy", quota=TenantQuota(trials=1))
        manager = self.cluster(tenants, num_nodes=1, gpus=2)
        first = manager.submit_job(JobKind.TRAIN, "n1", num_workers=1, tenant="noisy")
        queued = manager.submit_job(JobKind.TRAIN, "n2", num_workers=1, tenant="noisy")
        assert queued.state is JobState.PENDING
        tenants.suspend("noisy")
        manager.add_node(Node("n9", capacity=Resources(cpus=8, gpus=4, memory_gb=64)))
        # the suspended tenant's job stays queued, but the cluster
        # keeps operating for everyone else
        assert queued.state is JobState.PENDING
        other = manager.submit_job(JobKind.TRAIN, "g", num_workers=1, tenant="globex")
        assert other.state is JobState.RUNNING
        # reinstating lets the queue drain again once quota frees up
        tenants.reinstate("noisy")
        manager.stop_job(first.job_id)
        assert queued.state is JobState.RUNNING

    def test_pending_jobs_gauge_tracks_queue(self):
        manager = self.cluster(num_nodes=1, gpus=1)
        queued = manager.submit_job(JobKind.TRAIN, "big", num_workers=3)
        gauge = telemetry.get_registry().gauge("repro_cluster_pending_jobs", "pending")
        assert gauge.value() == 1
        manager.stop_job(queued.job_id)
        assert gauge.value() == 0


class TestSpreadAntiAffinity:
    def test_spread_replicas_avoid_stacking_on_one_big_node(self):
        # Regression: one over-provisioned node used to absorb every
        # replica of a spread job because the sort only looked at free
        # resources — breaking the block store's host-diversity
        # assumption.
        manager = ClusterManager()
        manager.add_node(Node("big", capacity=Resources(cpus=64, gpus=24, memory_gb=512)))
        manager.add_node(Node("s1", capacity=Resources(cpus=8, gpus=3, memory_gb=64)))
        manager.add_node(Node("s2", capacity=Resources(cpus=8, gpus=3, memory_gb=64)))
        job = manager.submit_job(JobKind.INFERENCE, "svc", num_workers=3, spread=True)
        worker_nodes = [c.node_name for c in job.workers]
        assert len(set(worker_nodes)) == 3, (
            f"spread replicas stacked: {worker_nodes}"
        )

    def test_spread_still_reuses_nodes_when_it_must(self):
        manager = ClusterManager()
        manager.add_node(Node("n0", capacity=Resources(cpus=8, gpus=4, memory_gb=64)))
        manager.add_node(Node("n1", capacity=Resources(cpus=8, gpus=1, memory_gb=64)))
        job = manager.submit_job(JobKind.INFERENCE, "svc", num_workers=4, spread=True)
        assert len(job.workers) == 4  # anti-affinity is a preference, not a veto
        assert {c.node_name for c in job.workers} == {"n0", "n1"}


class TestStopDegradedJob:
    def test_stop_degraded_job_purges_queued_restarts(self):
        # Regression guard: a DEGRADED job queues its lost containers in
        # _pending_restarts; stopping the job must drop them so a later
        # recover_node does not resurrect containers of a dead job (and
        # the pending-restarts gauge must not report ghosts).
        manager = ClusterManager()
        for i in range(2):
            manager.add_node(
                Node(f"n{i}", capacity=Resources(cpus=8, gpus=2, memory_gb=64))
            )
        job = manager.submit_job(JobKind.TRAIN, "t", num_workers=4)
        lost = job.containers[0].node_name
        manager.fail_node(lost)
        assert job.state is JobState.DEGRADED
        gauge = telemetry.get_registry().gauge(
            "repro_cluster_pending_restarts", "pending restarts"
        )
        assert gauge.value() > 0
        manager.stop_job(job.job_id)
        assert gauge.value() == 0
        started = manager.recover_node(lost)
        assert started == []
        assert all(not c.running for c in job.containers)
        assert all(node.allocated.gpus == 0 for node in manager.nodes.values())


class TestByteQuotas:
    def test_ps_put_over_quota_stores_nothing(self):
        tenants = TenantRegistry()
        tenants.register("acme", quota=TenantQuota(ps_bytes=100))
        server = ParameterServer(tenants=tenants)
        big = {"w": np.zeros((64, 64))}
        with tenant_context("acme"):
            with pytest.raises(QuotaExceededError):
                server.put("ckpt", big, model="m", dataset="d", performance=0.5)
        assert server.keys() == []
        assert tenants.ledger.usage("acme", "ps_bytes") == 0.0

    def test_ps_delete_releases_bytes(self):
        tenants = TenantRegistry()
        tenants.register("acme", quota=TenantQuota(ps_bytes=10**6))
        server = ParameterServer(tenants=tenants)
        with tenant_context("acme"):
            server.put("ckpt", {"w": np.zeros(16)}, model="m", dataset="d",
                       performance=0.5)
        assert tenants.ledger.usage("acme", "ps_bytes") > 0
        server.delete("ckpt")
        assert tenants.ledger.usage("acme", "ps_bytes") == 0.0

    def test_ps_put_store_quota_denial_leaves_no_phantom_version(self):
        # Regression: _put_once used to charge ps_bytes and append the
        # entry before put_blob, so a store_bytes denial left a phantom
        # version (whose get() failed) and a leaked ps_bytes charge.
        tenants = TenantRegistry()
        tenants.register("acme", quota=TenantQuota(store_bytes=10))
        store = DataStore("hdfs", tenants=tenants)
        server = ParameterServer(store=store, tenants=tenants)
        with tenant_context("acme"):
            with pytest.raises(QuotaExceededError):
                server.put("ckpt", {"w": np.zeros(64)}, model="m", dataset="d",
                           performance=0.5)
        assert server.keys() == []
        assert tenants.ledger.usage("acme", "ps_bytes") == 0.0
        assert tenants.ledger.usage("acme", "store_bytes") == 0.0
        # after lifting the quota, the next put starts clean at v1 and
        # its state is readable
        tenants.register("acme", quota=TenantQuota())
        with tenant_context("acme"):
            entry = server.put("ckpt", {"w": np.ones(4)}, model="m", dataset="d",
                               performance=0.5)
        assert entry.version == 1
        np.testing.assert_array_equal(server.get("ckpt")["w"], np.ones(4))

    def test_store_write_failure_leaves_no_phantom_charge(self, monkeypatch):
        # Regression: put_blob used to mutate the ledger before
        # fs.write, so a storage fault leaked a store_bytes charge and
        # prematurely released the displaced version's charge.
        tenants = TenantRegistry()
        tenants.register("acme", quota=TenantQuota(store_bytes=1000))
        store = DataStore("hdfs", tenants=tenants)
        with tenant_context("acme"):
            store.put_blob("a/blob", b"x" * 100)

            def boom(*args, **kwargs):
                raise StorageError("injected disk fault")

            monkeypatch.setattr(store.fs, "write", boom)
            with pytest.raises(StorageError):
                store.put_blob("a/blob", b"y" * 200)
        monkeypatch.undo()
        # old version intact and still the one charged
        assert tenants.ledger.usage("acme", "store_bytes") == 100.0
        assert store.get_blob("a/blob") == b"x" * 100
        with tenant_context("acme"):
            store.put_blob("a/blob", b"z" * 1000)  # headroom from v1 still counts
        assert tenants.ledger.usage("acme", "store_bytes") == 1000.0

    def test_store_blob_quota_and_overwrite_headroom(self):
        tenants = TenantRegistry()
        tenants.register("acme", quota=TenantQuota(store_bytes=1000))
        store = DataStore("hdfs", tenants=tenants)
        with tenant_context("acme"):
            store.put_blob("a/blob", b"x" * 900)
            with pytest.raises(QuotaExceededError):
                store.put_blob("a/other", b"x" * 200)
            # Overwriting the same path releases the displaced version's
            # charge first, so a same-size rewrite fits.
            store.put_blob("a/blob", b"y" * 950)
        assert tenants.ledger.usage("acme", "store_bytes") == 950.0
        store.delete_blobs(["a/blob"])
        assert tenants.ledger.usage("acme", "store_bytes") == 0.0


class TestFailedDeployReleasesQuota:
    """A deploy that raises leaves no RUNNING job and no ``replicas`` charge."""

    def _system(self, dataset):
        tenants = TenantRegistry()
        tenants.register("acme", quota=TenantQuota(replicas=2))
        system = Rafiki(seed=5, tenants=tenants)
        system.import_images(dataset)
        entry = system.registry.select_diverse("ImageClassification", k=1)[0]
        network = entry.builder(
            dataset.image_shape, dataset.num_classes, np.random.default_rng(0)
        )
        system.param_server.put("good", network.state_dict())
        system.param_server.put("misshapen", {"w": np.zeros(1)})
        return system, entry.name

    @pytest.mark.parametrize(
        "param_key, data_name, error",
        [
            ("missing", "food", ParameterNotFoundError),
            ("good", "no-such-dataset", DatasetNotFoundError),
            ("misshapen", "food", ConfigurationError),
        ],
    )
    def test_failed_deploy_rolls_back(self, dataset, param_key, data_name, error):
        from repro.core.system import ModelSpec

        system, model = self._system(dataset)

        def spec(key):
            return ModelSpec(model, key, 0.5, "ImageClassification", data_name)

        # Three failures against a quota of two: a leak would answer the
        # third (and every later deploy) with QuotaExceededError.
        for _ in range(3):
            with pytest.raises(error):
                system.create_inference_job([spec(param_key)], tenant="acme")
        assert system.inference_jobs == {}
        assert system.tenants.ledger.usage("acme", "replicas") == 0.0
        assert not any(
            job.state is JobState.RUNNING for job in system.cluster.jobs.values()
        )
        good = ModelSpec(model, "good", 0.5, "ImageClassification", "food")
        infer_id = system.create_inference_job([good, good], tenant="acme")
        assert system.get_inference_job(infer_id).status == "running"
        assert system.tenants.ledger.usage("acme", "replicas") == 2.0


class TestGatewayTenancy:
    def test_reregistered_suspended_tenant_still_gets_403(self):
        system = Rafiki(seed=5)
        system.tenants.register("acme")
        system.tenants.suspend("acme")
        system.tenants.register("acme", quota=TenantQuota(trials=8))
        response = Gateway(system).handle("GET", "/datasets", tenant="acme")
        assert response.status == 403

    def test_suspended_tenant_gets_403(self):
        system = Rafiki(seed=5)
        system.tenants.register("acme")
        system.tenants.suspend("acme")
        gateway = Gateway(system)
        response = gateway.handle("GET", "/datasets", tenant="acme")
        assert response.status == 403
        assert response.body["tenant"] == "acme"

    def test_tenant_from_body_field(self):
        system = Rafiki(seed=5)
        system.tenants.register("acme")
        system.tenants.suspend("acme")
        gateway = Gateway(system)
        response = gateway.handle("POST", "/train", {"tenant": "acme"})
        assert response.status == 403

    def test_quota_denied_train_gets_429(self, dataset):
        from repro.core.tune import SurrogateTrainer

        system = Rafiki(seed=5)
        system.tenants.register("acme", quota=TenantQuota(trials=0))
        system.import_images(dataset)
        gateway = Gateway(system)
        response = gateway.handle(
            "POST", "/train",
            {
                "name": "t", "task": "ImageClassification", "dataset": "food",
                "num_workers": 2,
            },
            tenant="acme",
        )
        assert response.status == 429
        assert response.body["reason"] == "quota"
        assert response.body["tenant"] == "acme"
        assert response.body["resource"] == "trials"
        assert response.body["retry_after"] > 0
        del SurrogateTrainer  # imported for parity with sibling tests

    def test_requests_counter_carries_tenant_label(self):
        system = Rafiki(seed=5)
        gateway = Gateway(system)
        gateway.handle("GET", "/datasets", tenant="acme")
        counter = telemetry.get_registry().counter(
            "repro_gateway_requests_total", "requests"
        )
        assert counter.value(
            method="GET", route="/datasets", status="200", tenant="acme"
        ) == 1

    def test_train_job_records_tenant(self, dataset):
        system = Rafiki(seed=5)
        system.import_images(dataset)
        gateway = Gateway(system)
        response = gateway.handle(
            "POST", "/train",
            {
                "name": "t", "task": "ImageClassification", "dataset": "food",
                "hyper": {"max_trials": 2, "max_epochs_per_trial": 3},
            },
            tenant="acme",
        )
        assert response.ok
        info = system.get_train_job(response.body["job_id"])
        assert info.tenant == "acme"


class TestHyperValidation:
    def test_unknown_hyper_field_is_400(self):
        # Regression: HyperConf(**{"max_trialz": 5}) used to raise
        # TypeError out of the gateway, crashing the caller instead of
        # answering 400.
        system = Rafiki(seed=5)
        gateway = Gateway(system)
        response = gateway.handle(
            "POST", "/train",
            {
                "name": "t", "task": "ImageClassification", "dataset": "d",
                "hyper": {"max_trialz": 5},
            },
        )
        assert response.status == 400
        assert "max_trialz" in response.body["error"]
        assert "valid fields" in response.body["error"]

    def test_non_object_hyper_is_400(self):
        system = Rafiki(seed=5)
        gateway = Gateway(system)
        response = gateway.handle(
            "POST", "/train",
            {
                "name": "t", "task": "ImageClassification", "dataset": "d",
                "hyper": [1, 2, 3],
            },
        )
        assert response.status == 400
        assert "must be an object" in response.body["error"]

    def test_invalid_hyper_value_is_400(self):
        system = Rafiki(seed=5)
        gateway = Gateway(system)
        response = gateway.handle(
            "POST", "/train",
            {
                "name": "t", "task": "ImageClassification", "dataset": "d",
                "hyper": {"max_trials": -3},
            },
        )
        assert response.status == 400

    def test_parse_hyper_accepts_valid_kwargs(self):
        conf = Gateway._parse_hyper({"max_trials": 4, "max_epochs_per_trial": 2})
        assert isinstance(conf, HyperConf)
        assert conf.max_trials == 4
        assert Gateway._parse_hyper({}) is None


class TestBatchShapeIsolation:
    def _deployed(self, dataset):
        system = Rafiki(seed=5)
        system.import_images(dataset)
        job_id = system.create_train_job(
            "t", "ImageClassification", "food", hyper=quick_hyper()
        )
        infer_id = system.create_inference_job(system.get_models(job_id))
        return system, infer_id

    def test_wrong_shape_fails_one_request_not_the_batch(self, dataset):
        # Regression: one client's wrong-shaped image used to blow up
        # np.stack over the whole batch, shedding every co-batched
        # client's request as executor_error.
        from repro.core.serve.frontend import AsyncServeFrontend, FrontendConfig

        system, infer_id = self._deployed(dataset)
        gateway = Gateway(system)
        cfg = FrontendConfig(
            latency=lambda b: 0.001, tau=0.5, batch_sizes=(1, 2, 4, 8),
            max_queue=16,
        )
        frontend = AsyncServeFrontend(cfg, make_query_executor(system, infer_id))
        gateway.attach_frontend(infer_id, frontend)

        good = dataset.test_x[0].tolist()
        bad = np.zeros((2, 2)).tolist()

        async def scenario():
            async with frontend:
                return await asyncio.gather(*(
                    gateway.handle_async(
                        "POST", f"/query/{infer_id}",
                        {"img": bad if i == 1 else good},
                        client_id=f"c{i}",
                    )
                    for i in range(4)
                ))

        responses = asyncio.run(scenario())
        statuses = [r.status for r in responses]
        assert statuses.count(400) == 1
        assert statuses.count(200) == 3
        bad_response = responses[statuses.index(400)]
        assert "shape" in bad_response.body["error"]
        for response in responses:
            if response.status == 200:
                assert "label" in response.body
        gateway.detach_frontend(infer_id)

    def test_ragged_payload_fails_alone(self, dataset):
        executor = make_query_executor(*self._deployed(dataset))
        good = dataset.test_x[0].tolist()
        ragged = [[1.0, 2.0], [3.0]]
        results = executor([good, ragged, good], batch_size=3)
        assert isinstance(results[1], GatewayError)
        assert results[0]["label"] is not None
        assert results[2]["label"] is not None

    def test_wrong_shaped_first_payload_fails_alone_without_spec_datasets(
        self, dataset
    ):
        # Regression: with the dataset named in the POST /inference body
        # but not in each model dict, the executor could not find the
        # job's image shape and took it from the first payload instead —
        # a wrong-shaped first image then failed every request behind it.
        system, _ = self._deployed(dataset)
        train_id = next(iter(system.train_jobs))
        models = [
            {"model_name": spec.model_name, "param_key": spec.param_key,
             "task": spec.task}
            for spec in system.get_models(train_id)
        ]
        response = Gateway(system).handle(
            "POST", "/inference", {"models": models, "dataset": "food"}
        )
        assert response.status == 200
        executor = make_query_executor(system, response.body["job_id"])
        good = dataset.test_x[0].tolist()
        bad = np.zeros((2, 2)).tolist()
        results = executor([bad, good, good], batch_size=3)
        assert isinstance(results[0], GatewayError)
        assert results[1]["label"] is not None
        assert results[2] == results[1]


class TestFrontendTenantLimits:
    def make(self, **kwargs):
        from repro.core.serve.frontend import FrontendConfig, ServeFrontend

        config = FrontendConfig(
            latency=lambda b: 0.01, tau=0.5, max_queue=kwargs.pop("max_queue", 8),
            **kwargs,
        )
        return ServeFrontend(config)

    def test_tenant_bucket_spans_clients(self):
        from repro.exceptions import RequestShedError

        frontend = self.make(tenant_rate_limits={"acme": 2.0})
        frontend.offer("c1", None, 0.0, tenant="acme")
        frontend.offer("c2", None, 0.0, tenant="acme")
        with pytest.raises(RequestShedError) as excinfo:
            frontend.offer("c3", None, 0.0, tenant="acme")
        assert excinfo.value.reason == "tenant_rate_limit"
        # another tenant is unaffected by acme's exhausted bucket
        assert frontend.offer("c4", None, 0.0, tenant="globex")

    def test_tenant_queue_share_caps_one_tenant(self):
        from repro.exceptions import RequestShedError

        frontend = self.make(max_queue=8, tenant_max_queue_share=0.25)
        frontend.offer("a1", None, 0.0, tenant="acme")
        frontend.offer("a2", None, 0.0, tenant="acme")
        with pytest.raises(RequestShedError) as excinfo:
            frontend.offer("a3", None, 0.0, tenant="acme")
        assert excinfo.value.reason == "tenant_queue_full"
        assert frontend.offer("g1", None, 0.0, tenant="globex")

    @pytest.mark.parametrize("reason, overrides", [
        ("queue_full", {"max_queue": 2}),
        ("tenant_queue_full", {"tenant_max_queue_share": 0.25}),
        ("deadline", {}),
    ], ids=["queue_full", "tenant_queue_full", "deadline"])
    def test_queue_full_shed_does_not_consume_tenant_token(self, reason, overrides):
        # No token is debited before admission: a request that passes the
        # tenant bucket and is shed by a later check leaves it untouched.
        from repro.exceptions import RequestShedError

        frontend = self.make(tenant_rate_limits={"acme": 100.0}, **overrides)
        frontend.offer("c1", None, 0.0, tenant="acme")
        frontend.offer("c2", None, 0.0, tenant="acme")
        if reason == "deadline":
            frontend.capacity = lambda now: (1, 10.0)  # nothing can meet tau
        bucket = frontend._tenant_buckets["acme"]
        before = bucket.tokens
        with pytest.raises(RequestShedError) as excinfo:
            frontend.offer("c3", None, 0.0, tenant="acme")
        assert excinfo.value.reason == reason
        assert bucket.tokens == before

    def test_tenant_outcome_accounting(self):
        frontend = self.make(tenant_rate_limits={"acme": 1.0})
        frontend.offer("c1", None, 0.0, tenant="acme")
        try:
            frontend.offer("c2", None, 0.0, tenant="acme")
        except Exception:
            pass
        assert frontend.tenant_outcomes["acme"]["admitted"] == 1
        assert frontend.tenant_outcomes["acme"]["tenant_rate_limit"] == 1


class TestSDKTenancy:
    def test_connect_tenant_flows_to_gateway(self, dataset):
        system = Rafiki(seed=5)
        system.tenants.register("acme")
        system.tenants.suspend("acme")
        sdk.connect(system, tenant="acme")
        try:
            with pytest.raises(GatewayError, match="403"):
                sdk.Train(
                    name="t", data="food", task="ImageClassification"
                ).run()
        finally:
            sdk.connect(None)

    def test_explicit_tenant_overrides_session_tenant(self):
        system = Rafiki(seed=5)
        system.tenants.register("bad")
        system.tenants.suspend("bad")
        sdk.connect(system, tenant="good")
        try:
            with pytest.raises(GatewayError, match="403"):
                sdk.query("nojob", {"img": [1.0]}, tenant="bad")
            # session tenant "good" is fine; failure is now just 404
            with pytest.raises(GatewayError, match="404"):
                sdk.query("nojob", {"img": [1.0]})
        finally:
            sdk.connect(None)

    def test_get_models_carries_the_tenant(self):
        # Regression: get_models sent no tenant, so a suspended tenant's
        # call ran as "default" and reached the handler (404, not 403).
        system = Rafiki(seed=5)
        system.tenants.register("acme")
        system.tenants.suspend("acme")
        sdk.connect(system, tenant="acme")
        try:
            with pytest.raises(GatewayError, match="403"):
                sdk.get_models("nojob")
            with pytest.raises(GatewayError, match="404"):
                sdk.get_models("nojob", tenant="default")
        finally:
            sdk.connect(None)


@pytest.mark.chaos
class TestTenantIsolationScenario:
    def test_isolation_gate_holds(self):
        from repro.chaos.scenarios import tenants

        out = tenants.run(seed=3)
        # the verdict is the spec's; here: tenant A really was attacked
        assert tenants.check(out) == []
        assert out["faults_injected"] > 0
        assert out["points_hit"] == ["frontend.accept.tenant.tenant-a"]
