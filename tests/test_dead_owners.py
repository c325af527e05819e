"""Every central registry holds its owners weakly.

Gauge readers, the usage ledger, the block store's chunk references and
the cluster's recovery hooks each take an owner and an unbound reader
(:mod:`repro.utils.owners`). While the owner lives, what it registered
counts as before; once it is dropped, it counts for nothing: its gauge
series is gone from both expositions, its ledger share from the usage,
its namespace's references from the block store, and its hook never
fires. Each case builds two owners, drops one, and compares.
"""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.cluster import ClusterManager, Node
from repro.cluster.manager import JobKind
from repro.cluster.node import Resources
from repro.data import BlockStore, DataStore, FileNamespace
from repro.paramserver.cache import LRUCache
from repro.tenancy import TenantRegistry, tenant_context


def _gauge_case():
    """Two caches' ``repro_cache_used_bytes`` series; the reading is the
    series of ``dropped`` in the JSON and the Prometheus expositions."""
    owners = {
        name: LRUCache(capacity_bytes=100, size_of=len, name=name)
        for name in ("kept", "dropped")
    }
    owners["kept"].put("a", b"xyz")
    owners["dropped"].put("a", b"12345")
    registry = telemetry.get_registry()

    def read():
        values = json.loads(telemetry.to_json(registry))["gauges"]
        text = telemetry.render_prometheus(registry)
        series = values["repro_cache_used_bytes"]["values"]
        return series.get("cache=dropped"), 'cache="dropped"' in text, series["cache=kept"]

    return owners, read, (5.0, True, 3.0), (None, False, 3.0)


def _ledger_case():
    """Two stores' blobs held by one tenant; the reading is its usage."""
    tenants = TenantRegistry()
    owners = {name: DataStore(name, tenants=tenants) for name in ("kept", "dropped")}
    with tenant_context("acme"):
        owners["kept"].put_blob("a", b"x" * 300)
        owners["dropped"].put_blob("a", b"y" * 1200)

    def read():
        return tenants.ledger.usage("acme", "store_bytes"), tenants.ledger.snapshot()

    return (
        owners, read,
        (1500.0, {"acme": {"store_bytes": 1500.0}}), (300.0, {"acme": {"store_bytes": 300.0}}),
    )


def _block_store_case():
    """Two namespaces over one block store, each with its own file; the
    reading is the references the store counts and what a collection keeps."""
    blocks = BlockStore(nodes=3, replicas=2, chunk_size=64)
    owners = {name: FileNamespace(blocks, name=name) for name in ("kept", "dropped")}
    kept = owners["kept"].write("f", b"k" * 100).digests
    dropped = owners["dropped"].write("f", bytes(range(200))).digests

    def read():
        counted = sorted(blocks._reference_counts().elements())
        blocks.collect([*kept, *dropped])
        return counted, sorted(blocks._directory)

    both = sorted([*kept, *dropped])
    return owners, read, (both, both), (sorted(kept), sorted(kept))


class _Hooked:
    """An owner whose recovery hook records that it heard a replacement."""

    def __init__(self, name: str, manager: ClusterManager, heard: list):
        self.name, self.heard = name, heard
        manager.on_recovery(self, _Hooked.recovered)

    def recovered(self, container) -> None:
        self.heard.append(self.name)


def _recovery_hook_case():
    """Two owners' hooks on one manager; the reading is who heard the
    replacements of a node failure."""
    manager = ClusterManager()
    for i in range(3):
        manager.add_node(Node(f"n{i}", capacity=Resources(cpus=8, gpus=3, memory_gb=64)))
    job = manager.submit_job(JobKind.TRAIN, name="t", num_workers=1)
    heard: list = []
    owners = {name: _Hooked(name, manager, heard) for name in ("kept", "dropped")}

    def read():
        heard.clear()
        node = next(c.node_name for c in job.containers if c.running)
        manager.fail_node(node)
        manager.recover_node(node)
        return sorted(set(heard))

    return owners, read, ["dropped", "kept"], ["kept"]


CASES = {
    "gauge": _gauge_case,
    "ledger": _ledger_case,
    "block store": _block_store_case,
    "recovery hook": _recovery_hook_case,
}


@pytest.mark.parametrize("registry", sorted(CASES))
def test_a_dead_owner_counts_for_nothing(registry):
    owners, read, alive, dead = CASES[registry]()
    assert read() == alive
    del owners["dropped"]
    assert read() == dead


def test_src_registers_no_owner_strongly():
    """Every ``set_function``/``govern``/``add_reader``/``on_recovery`` call
    in ``src/`` passes its owner and a reader that does not hold it."""
    import importlib.util
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("tally", root / "tools" / "tally.py")
    tally = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tally)
    assert tally.strong_registrations() == []
