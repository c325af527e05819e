"""Tests for the parameter-server serving tier over the block store."""

import numpy as np
import pytest

from repro import chaos, telemetry
from repro.chaos import FaultKind, FaultPlan, FaultRule
from repro.chaos.scenarios.shard_kill import reads_through_each_shard
from repro.cluster import ClusterManager, Node
from repro.cluster.membership import preference_order
from repro.cluster.node import Resources
from repro.data import DataStore
from repro.exceptions import (
    ConfigurationError,
    ChunkLostError,
    ParameterNotFoundError,
    ParameterServerError,
    QuotaExceededError,
)
from repro.paramserver import ParameterServer, ShardedParameterServer
from repro.tenancy import TenantQuota, TenantRegistry, tenant_context


def state(value: float, shape=(4, 4)) -> dict:
    return {"layer/W": np.full(shape, value), "layer/b": np.full(shape[0], value)}


def seeded_states(seed: int, n: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [
        {"w": rng.standard_normal((8, 8)), "b": rng.standard_normal(8)}
        for _ in range(n)
    ]


@pytest.fixture()
def cluster():
    manager = ClusterManager()
    for i in range(3):
        manager.add_node(
            Node(f"n{i}", capacity=Resources(cpus=16, gpus=2, memory_gb=64))
        )
    return manager


def primary(sps, key):
    """The shard that serves ``key`` while every shard is healthy."""
    return preference_order(key, sps.shards)[0].name


def key_chunks(sps, key):
    """Every chunk digest the key's stored versions reference."""
    return {
        digest
        for version in range(1, sps.versions(key) + 1)
        for digest in sps.store.fs.stat(sps.get_entry(key, version).path).digests
    }


class TestRingAndReplication:
    def test_replicas_clamped_to_shards(self):
        sps = ShardedParameterServer(shards=2, replicas=5)
        assert sps.replicas == 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            ShardedParameterServer(shards=0)
        with pytest.raises(ConfigurationError):
            ShardedParameterServer(shards=2, replicas=0)

    def test_chunks_on_replicas_distinct_datanodes(self):
        sps = ShardedParameterServer(shards=4, replicas=2)
        for i in range(30):
            sps.put(f"k{i}", state(float(i)))
        for i in range(30):
            for digest in key_chunks(sps, f"k{i}"):
                holders = sps.block_store._directory[digest]
                assert len(holders) == 2
                assert len(set(holders)) == 2
        # ... and is written exactly once: nothing for dedup to absorb.
        assert sps.block_store.audit()["dedup_hits"] == 0

    def test_keys_spread_across_shards(self):
        sps = ShardedParameterServer(shards=4, replicas=1)
        for i in range(64):
            sps.put(f"k{i}", state(float(i)))
        pushes = telemetry.get_registry().counter(
            "repro_paramserver_shard_requests_total", "x"
        )
        loads = [pushes.value(shard=s.name, op="push", outcome="ok")
                 for s in sps.shards]
        assert all(load > 0 for load in loads) and sum(loads) == 64

    def test_preference_order_is_stable(self):
        a = ShardedParameterServer(shards=4, replicas=2)
        b = ShardedParameterServer(shards=4, replicas=2)
        for key in ("alpha", "beta", "gamma"):
            order = [s.name for s in preference_order(key, a.shards)]
            assert order == [s.name for s in preference_order(key, b.shards)]
            assert sorted(order) == [s.name for s in a.shards]

    def test_versions_consistent_across_replicas(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        for value in (1.0, 2.0, 3.0):
            sps.put("k", state(value))
        assert sps.versions("k") == 3
        # one index: whichever shard serves, it sees the same history
        for name, got in reads_through_each_shard(sps, "k").items():
            np.testing.assert_allclose(got["layer/W"], 3.0, err_msg=name)
        for shard in sps.shards[:-1]:
            sps.kill_shard(shard.name)
        for version, value in ((1, 1.0), (2, 2.0), (3, 3.0)):
            np.testing.assert_allclose(sps.get("k", version)["layer/W"], value)


class TestEquivalenceWithSingleServer:
    def test_same_seed_bit_identical_gets(self):
        """shards=3 answers bit-for-bit what the single server answers."""
        plain = ParameterServer()
        sharded = ShardedParameterServer(shards=3, replicas=2)
        states = seeded_states(42, 12)
        for i, s in enumerate(states):
            plain.put(f"k{i}", s, performance=float(i), model="m", dataset="d")
            sharded.put(f"k{i}", s, performance=float(i), model="m", dataset="d")
        for i in range(12):
            a, b = plain.get(f"k{i}"), sharded.get(f"k{i}")
            assert sorted(a) == sorted(b)
            for name in a:
                assert a[name].tobytes() == b[name].tobytes()
            ea, eb = plain.get_entry(f"k{i}"), sharded.get_entry(f"k{i}")
            assert (ea.version, ea.performance) == (eb.version, eb.performance)

    def test_keys_and_has_match(self):
        plain = ParameterServer()
        sharded = ShardedParameterServer(shards=3, replicas=2)
        for ps in (plain, sharded):
            for key in ("z", "a", "m"):
                ps.put(key, state(1.0))
        assert sharded.keys() == plain.keys()
        assert sharded.has("a") and not sharded.has("q")


class TestShardDeathAndRecovery:
    def test_kill_loses_nothing_with_replication(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        states = seeded_states(7, 15)
        for i, s in enumerate(states):
            sps.put(f"k{i}", s)
        before = {f"k{i}": sps.get(f"k{i}") for i in range(15)}
        sps.kill_shard("ps-0")
        audit = sps.audit()
        assert audit["keys_lost"] == 0
        assert not audit["under_replicated"] and not audit["divergent"]
        for key, value in before.items():
            after = sps.get(key)
            for name in value:
                assert value[name].tobytes() == after[name].tobytes()

    def test_kill_without_replication_loses_keys(self):
        """Shards hold nothing durable; an unreplicated *datanode* does."""
        sps = ShardedParameterServer(shards=3, replicas=1, cache_bytes=3)
        for i in range(12):
            sps.put(f"k{i}", state(float(i)))
        for shard in sps.shards:
            sps.kill_shard(shard.name)
            sps.revive_shard(shard.name)
        assert sps.audit()["keys_lost"] == 0
        held = [
            k for k in sps.keys()
            if any("dn-1" in sps.block_store._directory[d] for d in key_chunks(sps, k))
        ]
        assert held  # 12 keys over 3 datanodes: each holds some
        sps.block_store.kill_node("dn-1")
        assert sps.audit()["keys_lost"] == len(held)
        for key in held:
            with pytest.raises(ChunkLostError):
                sps.get(key)
        sps.block_store.rejoin_node("dn-1")
        assert sps.audit()["keys_lost"] == 0
        for i in range(12):
            np.testing.assert_allclose(sps.get(f"k{i}")["layer/W"], float(i))

    def test_revived_shard_serves_its_keys_again(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        for i in range(12):
            sps.put(f"k{i}", state(float(i)))
        mine = [f"k{i}" for i in range(12) if primary(sps, f"k{i}") == "ps-2"]
        assert mine
        sps.kill_shard("ps-2")
        assert len(sps.shards[2].cache) == 0
        for key in mine:  # served by the next shard meanwhile
            sps.get(key)
        sps.revive_shard("ps-2")
        audit = sps.audit()
        assert not audit["under_replicated"] and not audit["divergent"]
        requests = telemetry.get_registry().counter(
            "repro_paramserver_shard_requests_total", "x"
        )
        before = requests.value(shard="ps-2", op="pull", outcome="ok")
        for key in mine:
            np.testing.assert_allclose(sps.get(key)["layer/W"], float(key[1:]))
        # it came back cold, is first choice for its keys again, and refills
        assert requests.value(shard="ps-2", op="pull", outcome="ok") == before + len(mine)
        assert len(sps.shards[2].cache) == len(mine)

    def test_all_shards_dead_raises(self):
        sps = ShardedParameterServer(shards=2, replicas=2)
        sps.put("k", state(1.0))
        sps.kill_shard("ps-0")
        sps.kill_shard("ps-1")
        with pytest.raises((ParameterServerError, ParameterNotFoundError)):
            sps.get("k")
        with pytest.raises(ParameterServerError):
            sps.put("j", state(2.0))

    def test_repair_heals_degraded_writes(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.put("k", state(1.0))
        victim = sps.block_store._directory[next(iter(key_chunks(sps, "k")))][0]
        plan = FaultPlan(
            [FaultRule(f"data.store.node.{victim}.put", FaultKind.EXCEPTION)],
            seed=3,
        )
        previous = chaos.set_plan(plan)
        try:
            sps.put("j", state(2.0))  # every chunk skips the failing datanode
            sps.put("k", state(2.0))
        finally:
            chaos.set_plan(previous)
        assert sps.audit()["under_replicated"]
        assert sps.repair() >= 1 and sps.audit()["rereplications"] >= 1
        audit = sps.audit()
        assert not audit["under_replicated"] and not audit["divergent"]
        # the healed copies alone can serve the latest version
        for node in sps.block_store.nodes:
            if node.name != victim:
                sps.block_store.kill_node(node.name)
                break
        np.testing.assert_allclose(sps.get("k")["layer/W"], 2.0)


class TestFailoverAndBreakers:
    def test_read_fails_over_to_replica(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.put("k", state(5.0))
        first = primary(sps, "k")
        plan = FaultPlan(
            [FaultRule(f"paramserver.shard.{first}.pull", FaultKind.EXCEPTION)],
            seed=1,
        )
        previous = chaos.set_plan(plan)
        try:
            np.testing.assert_allclose(sps.get("k")["layer/W"], 5.0)
        finally:
            chaos.set_plan(previous)
        failovers = telemetry.get_registry().counter(
            "repro_paramserver_failovers_total", "x"
        )
        assert failovers.value(shard=first, op="pull") >= 1

    def test_breaker_opens_and_skips_failing_shard(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.put("k", state(1.0))
        first = primary(sps, "k")
        plan = FaultPlan(
            [FaultRule(f"paramserver.shard.{first}.pull", FaultKind.EXCEPTION)],
            seed=1,
        )
        previous = chaos.set_plan(plan)
        try:
            for _ in range(4):
                sps.get("k")
            assert sps._by_name[first].breaker.state == "open"
            # with the breaker open the faulty shard is not even attempted
            errors = telemetry.get_registry().counter(
                "repro_paramserver_shard_requests_total", "x"
            )
            before = errors.value(shard=first, op="pull", outcome="error")
            sps.get("k")
            assert errors.value(shard=first, op="pull", outcome="error") == before
        finally:
            chaos.set_plan(previous)

    def test_put_survives_one_failing_replica(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.put("k", state(1.0))
        victim = primary(sps, "k")
        plan = FaultPlan(
            [FaultRule(f"paramserver.shard.{victim}.push", FaultKind.EXCEPTION)],
            seed=2,
        )
        previous = chaos.set_plan(plan)
        try:
            entry = sps.put("k", state(2.0))
        finally:
            chaos.set_plan(previous)
        assert entry.version == 2 and sps.versions("k") == 2
        np.testing.assert_allclose(sps.get("k")["layer/W"], 2.0)
        requests = telemetry.get_registry().counter(
            "repro_paramserver_shard_requests_total", "x"
        )
        # written once, by the shard that took over
        assert sum(
            requests.value(shard=s.name, op="push", outcome="ok") for s in sps.shards
        ) == 2

    def test_no_stale_read_after_delete_and_reput(self):
        """A re-created key reuses ``params/<key>/v1``: no cache may keep it."""
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.put("k", state(1.0))
        first = primary(sps, "k")
        plan = FaultPlan(
            [FaultRule(f"paramserver.shard.{first}.pull", FaultKind.EXCEPTION,
                       max_faults=1)],
            seed=4,
        )
        previous = chaos.set_plan(plan)
        try:
            sps.get("k")  # fails over: a non-primary shard now caches v1
        finally:
            chaos.set_plan(previous)
        assert sum("params/k/v1" in s.cache for s in sps.shards) == 2
        sps.delete("k")
        assert not any("params/k/v1" in s.cache for s in sps.shards)
        entry = sps.put("k", state(9.0))
        assert entry.version == 1
        answers = reads_through_each_shard(sps, "k")
        assert sorted(answers) == ["ps-0", "ps-1", "ps-2"]
        for name, got in answers.items():
            np.testing.assert_allclose(got["layer/W"], 9.0, err_msg=name)


class TestClusterIntegration:
    def test_shards_placed_on_distinct_nodes(self, cluster):
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.register_with_cluster(cluster)
        nodes = {
            cluster.containers[s.container_id].node_name for s in sps.shards
        }
        assert len(nodes) == 3
        assert nodes == {s.node_name for s in sps.shards}

    def test_node_failure_rereplicates_and_recovers(self, cluster):
        """A node takes a shard and a datanode down; nothing is lost."""
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.register_with_cluster(cluster)
        sps.block_store.register_with_cluster(cluster)
        for i in range(12):
            sps.put(f"k{i}", state(float(i)))
        victim = sps.shards[0]
        datanode = next(
            n for n in sps.block_store.nodes if n.node_name == victim.node_name
        )
        old_container = victim.container_id
        cluster.fail_node(victim.node_name)
        audit = sps.audit()
        assert audit["keys_lost"] == 0
        assert not audit["under_replicated"] and not audit["divergent"]
        assert audit["rereplications"] > 0 and datanode.deaths.count == 1
        # the replacement container was re-attached through the recovery hook
        assert victim.alive and victim.deaths.count == 1
        assert victim.container_id != old_container
        assert cluster.containers[victim.container_id].predecessor == old_container
        for i in range(12):
            np.testing.assert_allclose(sps.get(f"k{i}")["layer/W"], float(i))

    def test_default_facade_registers_nothing(self):
        from repro.core.system import Rafiki

        system = Rafiki()
        assert system.param_server.manager is None
        assert system.store.blocks.manager is None
        assert system.cluster.jobs == {} and system.cluster.containers == {}

    def test_dead_container_noticed_before_replacement(self):
        """No room for a replacement: the lazy liveness check fails over."""
        manager = ClusterManager()
        for i in range(3):
            manager.add_node(
                Node(f"n{i}", capacity=Resources(cpus=2, gpus=0, memory_gb=16))
            )
        sps = ShardedParameterServer(shards=3, replicas=2)
        sps.register_with_cluster(
            manager, worker_request=Resources(cpus=1, gpus=0, memory_gb=12)
        )
        for i in range(6):
            sps.put(f"k{i}", state(float(i)))
        victim = sps.shards[0]
        manager.fail_node(victim.node_name)
        assert victim.alive  # nobody has looked yet
        for i in range(6):
            np.testing.assert_allclose(sps.get(f"k{i}")["layer/W"], float(i))
        assert not victim.alive and victim.deaths.count == 1
        assert [s.name for s in sps.live_shards()] == ["ps-1", "ps-2"]

    def test_double_registration_rejected(self, cluster):
        sps = ShardedParameterServer(shards=2, replicas=2)
        sps.register_with_cluster(cluster)
        with pytest.raises(ConfigurationError):
            sps.register_with_cluster(cluster)


class TestTelemetry:
    def test_per_shard_push_labels(self):
        sps = ShardedParameterServer(shards=2, replicas=1)
        for i in range(8):
            sps.put(f"k{i}", state(float(i)))
        registry = telemetry.get_registry()
        requests = registry.counter("repro_paramserver_shard_requests_total", "x")
        total = sum(
            requests.value(shard=s.name, op="push", outcome="ok") for s in sps.shards
        )
        # one index underneath: each version is pushed (and counted) once
        assert total == 8 == registry.counter("repro_paramserver_push_total", "x").value()

    def test_no_unsharded_cache_series(self):
        # the index builds no cache of its own: only per-shard series exist
        sps = ShardedParameterServer(shards=2, replicas=1)
        sps.put("k", state(1.0))
        sps.get("k")
        sps.put("k", state(2.0))
        sps.delete("k")
        exported = telemetry.to_json(telemetry.get_registry())
        assert '"cache=paramserver-ps-' in exported
        assert '"cache=paramserver"' not in exported
        assert "_cache" not in vars(sps) and "cache" not in vars(sps)

    def test_live_shards_gauge_tracks_kills(self):
        sps = ShardedParameterServer(shards=3, replicas=2)
        gauge = telemetry.get_registry().gauge("repro_paramserver_shards_live", "x")
        assert gauge.value() == 3
        sps.kill_shard("ps-0")
        assert gauge.value() == 2
        sps.revive_shard("ps-0")
        assert gauge.value() == 3


class TestQuota:
    """Both planes are enforced through the one class, whatever the shard count."""

    @pytest.mark.parametrize("plane", ["single", "sharded"])
    def test_over_quota_put_raises_and_delete_releases(self, plane):
        nbytes = sum(v.nbytes for v in state(1.0).values())
        tenants = TenantRegistry()
        tenants.register("acme", quota=TenantQuota(ps_bytes=2 * nbytes))
        ps = ParameterServer(
            store=DataStore("rafiki-hdfs", tenants=tenants),
            shards=1 if plane == "single" else 2, tenants=tenants,
        )
        assert isinstance(ps, ParameterServer)
        assert len(ps.shards) == (2 if plane == "sharded" else 1)
        with tenant_context("acme"):
            ps.put("k", state(1.0))
            ps.put("k", state(2.0))
            # charged once per version, not once per replica
            assert tenants.ledger.usage("acme", "ps_bytes") == 2 * nbytes
            stored = tenants.ledger.usage("acme", "store_bytes")
            assert stored > 0
            with pytest.raises(QuotaExceededError):
                ps.put("k", state(3.0))
            assert ps.versions("k") == 2
            assert tenants.ledger.usage("acme", "store_bytes") == stored
            ps.delete("k")
            assert tenants.ledger.usage("acme", "ps_bytes") == 0
            assert tenants.ledger.usage("acme", "store_bytes") == 0
            ps.put("k", state(3.0))
        np.testing.assert_allclose(ps.get("k")["layer/W"], 3.0)


@pytest.mark.chaos
class TestShardKillScenario:
    def test_shard_kill_mid_study_loses_nothing(self):
        from repro.chaos.scenarios import shard_kill

        result = shard_kill.run(seed=0)
        # the verdict is the spec's; here: the kill really happened
        assert shard_kill.check(result) == []
        assert result["victim"]["deaths"] >= 1
        # the failed node took real bytes with it, not just a cache
        assert result["victim"]["datanodes"]
        assert result["audit"]["rereplications"] > 0
        assert result["results"]["trials"] >= 16
