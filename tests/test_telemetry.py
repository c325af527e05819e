"""Telemetry layer: registry, tracer, exporters, dashboard round-trip."""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import sys

import numpy as np
import pytest

from repro import telemetry
from repro.exceptions import TelemetryError
from repro.telemetry import (
    Counter,
    Histogram,
    ManualClock,
    MetricsRegistry,
    Tracer,
    render_prometheus,
    set_clock,
    set_registry,
    set_tracer,
    snapshot,
    to_json,
)

pytestmark = pytest.mark.telemetry


@pytest.fixture(autouse=True)
def fresh_telemetry():
    """Install a fresh registry/tracer so tests never see each other."""
    previous_registry = set_registry(MetricsRegistry())
    previous_tracer = set_tracer(Tracer())
    yield
    set_registry(previous_registry)
    set_tracer(previous_tracer)


@pytest.fixture
def manual_clock():
    clock = ManualClock()
    previous = set_clock(clock)
    yield clock
    set_clock(previous)


class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = telemetry.get_registry()
        counter = registry.counter("reqs_total", "Requests.")
        counter.inc(route="/a")
        counter.inc(2, route="/a")
        counter.inc(route="/b")
        assert counter.value(route="/a") == 3
        assert counter.value(route="/b") == 1
        assert counter.value(route="/never") == 0

    def test_counter_rejects_negative(self):
        counter = telemetry.get_registry().counter("c_total")
        with pytest.raises(TelemetryError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = telemetry.get_registry().gauge("depth")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value() == 13

    def test_get_or_create_returns_same_family(self):
        registry = telemetry.get_registry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_kind_mismatch_raises(self):
        registry = telemetry.get_registry()
        registry.counter("thing")
        with pytest.raises(TelemetryError):
            registry.gauge("thing")

    def test_disabled_registry_records_nothing(self):
        registry = telemetry.get_registry()
        registry.disable()
        registry.counter("c_total").inc()
        registry.gauge("g").set(9)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        registry.enable()
        assert registry.counter("c_total").value() == 0
        assert registry.gauge("g").value() == 0
        assert registry.histogram("h").child_state() == ([0, 0], 0.0, 0)

    def test_reset_drops_all_families(self):
        registry = telemetry.get_registry()
        registry.counter("c_total").inc()
        registry.reset()
        assert registry.metrics() == []


class TestCounterLabels:
    def test_a_bound_child_creates_no_series_until_it_records(self):
        registry = _golden_registry()
        golden_json, golden_text = to_json(registry), render_prometheus(registry)
        counter = registry.counter("repro_demo_requests_total")
        child = counter.labels(route="/c")
        Counter("repro_demo_bound_total", "Bound by an owner.", registry).labels()
        assert to_json(registry) == golden_json
        assert render_prometheus(registry) == golden_text
        child.inc()
        assert counter.snapshot() == {"route=/a": 2.0, "route=/b": 1.0, "route=/c": 1.0}

    def test_lands_in_the_same_series_as_inc_with_labels(self):
        counter = telemetry.get_registry().counter("reqs_total")
        child = counter.labels(route="/a", method="GET")
        child.inc()
        counter.inc(2, method="GET", route="/a")
        child.inc(0.5)
        assert counter.value(route="/a", method="GET") == 3.5
        assert counter.label_keys() == [(("method", "GET"), ("route", "/a"))]

    def test_an_owner_built_family_joins_at_its_first_record(self):
        registry = telemetry.get_registry()
        child = Counter("c_total", "C.", registry).labels(node="x")
        assert registry.get("c_total") is None
        child.inc()
        assert registry.counter("c_total").value(node="x") == 1
        # a second owner's family records into the one already listed
        Counter("c_total", "C.", registry).labels(node="x").inc()
        assert registry.counter("c_total").value(node="x") == 2

    def test_is_a_no_op_while_the_registry_is_disabled(self):
        registry = telemetry.get_registry()
        child = registry.counter("c_total").labels(route="/a")
        owned = Counter("d_total", "D.", registry).labels()
        registry.disable()
        child.inc()
        owned.inc()
        registry.enable()
        assert registry.counter("c_total").label_keys() == []
        assert registry.get("d_total") is None

    def test_rejects_a_negative_amount(self):
        child = telemetry.get_registry().counter("c_total").labels(route="/a")
        with pytest.raises(TelemetryError):
            child.inc(-1)
        assert telemetry.get_registry().counter("c_total").label_keys() == []


class TestHistogramLabels:
    def test_lands_in_the_same_series_as_observe_with_labels(self):
        histogram = telemetry.get_registry().histogram("h_seconds", buckets=(1.0, 2.0))
        child = histogram.labels(route="/a", method="GET")
        child.observe(0.5)
        histogram.observe(1.5, method="GET", route="/a")
        child.observe(3)
        assert histogram.child_state(route="/a", method="GET") == ([1, 1, 1], 5.0, 3)
        assert histogram.label_keys() == [(("method", "GET"), ("route", "/a"))]

    def test_an_owner_built_family_joins_at_its_first_record(self):
        registry = telemetry.get_registry()
        child = Histogram("h_seconds", "H.", registry, buckets=(1.0,)).labels(node="x")
        assert registry.get("h_seconds") is None
        child.observe(0.5)
        Histogram("h_seconds", "H.", registry, buckets=(1.0,)).labels(node="x").observe(2)
        assert registry.histogram("h_seconds").child_state(node="x") == ([1, 1], 2.5, 2)

    def test_is_a_no_op_while_the_registry_is_disabled(self):
        registry = telemetry.get_registry()
        child = registry.histogram("h_seconds").labels(route="/a")
        owned = Histogram("g_seconds", "G.", registry).labels()
        registry.disable()
        child.observe(1)
        owned.observe(1)
        registry.enable()
        assert registry.histogram("h_seconds").label_keys() == []
        assert registry.get("g_seconds") is None


class TestGaugeSetFunction:
    def test_reads_live_state_when_looked_at(self):
        queue = []
        gauge = telemetry.get_registry().gauge("depth")
        gauge.set_function(lambda: len(queue), tenant="a")
        assert gauge.value(tenant="a") == 0
        queue.extend("xyz")
        assert gauge.value(tenant="a") == 3
        assert gauge.label_keys() == [(("tenant", "a"),)]
        assert gauge.snapshot() == {"tenant=a": 3.0}
        assert isinstance(gauge.snapshot()["tenant=a"], float)

    def test_registering_again_replaces_the_reader(self):
        gauge = telemetry.get_registry().gauge("depth")
        gauge.set_function(lambda: 1, owner="x")
        gauge.set_function(lambda: 2, owner="x")
        gauge.set_function(lambda: 5, owner="y")
        assert gauge.snapshot() == {"owner=x": 2.0, "owner=y": 5.0}

    def test_set_and_set_function_overwrite_each_other(self):
        gauge = telemetry.get_registry().gauge("depth")
        gauge.set(7)
        gauge.set_function(lambda: 8)
        assert gauge.snapshot() == {"": 8.0}
        with pytest.raises(TelemetryError):
            gauge.inc()
        gauge.set(9)
        assert gauge.snapshot() == {"": 9.0}

    def test_reset_forgets_readers(self):
        registry = telemetry.get_registry()
        registry.gauge("depth").set_function(lambda: 4)
        registry.reset()
        assert registry.metrics() == []
        assert registry.gauge("depth").label_keys() == []

    def test_disabled_registry_evaluates_nothing(self):
        calls = []
        registry = telemetry.get_registry()
        gauge = registry.gauge("depth")
        gauge.set_function(lambda: calls.append(1) or 6)
        registry.disable()
        assert gauge.value() == 0
        assert gauge.label_keys() == []
        assert snapshot(registry)["gauges"]["depth"]["values"] == {}
        assert "depth 6" not in render_prometheus(registry)
        assert calls == []
        registry.enable()
        assert gauge.value() == 6

    def test_exposition_is_byte_equal_to_the_same_value_set(self):
        pushed, read = MetricsRegistry(), MetricsRegistry()
        for value, labels in ((3, {}), (2.5, {"kind": "unique"}), (1e18, {"kind": "big"})):
            pushed.gauge("repro_demo_depth", "Demo.").set(value, **labels)
            read.gauge("repro_demo_depth", "Demo.").set_function(
                lambda value=value: value, **labels
            )
        assert to_json(read) == to_json(pushed)
        assert render_prometheus(read) == render_prometheus(pushed)


def _hot_paths() -> dict:
    """Code object -> name of every path that may look no counter or
    histogram up."""
    from repro.api.gateway import Gateway
    from repro.data import BlockStore
    from repro.paramserver import LRUCache, ParameterServer

    from repro.sqlext import Database

    paths = (BlockStore.get_chunk, ParameterServer.get, ParameterServer.put,
             LRUCache.get, LRUCache.put, Database.execute,
             Gateway.handle, Gateway.handle_async)
    return {fn.__code__: fn.__qualname__ for fn in paths}


class _RegistrySpy(MetricsRegistry):
    """A registry that, once armed, remembers every gauge family it was
    asked for, and every counter or histogram family asked for inside a
    hot path."""

    def __init__(self):
        super().__init__()
        self.armed = False
        self.gauges_asked: list[str] = []
        self.counters_asked: list[tuple[str, str]] = []
        self._hot = _hot_paths()

    def arm(self):
        """The owners are built: lookups from here on are per event."""
        self.armed = True

    def gauge(self, name, help=""):
        if self.armed:
            self.gauges_asked.append(name)
        return super().gauge(name, help)

    def _note_hot(self, name):
        frame = sys._getframe(2) if self.armed else None
        while frame is not None:
            if frame.f_code in self._hot:
                self.counters_asked.append((name, self._hot[frame.f_code]))
                break
            frame = frame.f_back

    def counter(self, name, help=""):
        self._note_hot(name)
        return super().counter(name, help)

    def histogram(self, name, help="", **kwargs):
        self._note_hot(name)
        return super().histogram(name, help, **kwargs)


class TestHotPathsTouchNoGauge:
    """State gauges are registered, and hot-path counters bound, where the
    owner is built; the paths that mutate the state never look a gauge
    up, and a chunk read, a PS put or get, or an LRU lookup looks up no
    counter either."""

    @pytest.fixture
    def spy(self):
        """Installed before the test builds its owners, armed once they are."""
        spy = _RegistrySpy()
        set_registry(spy)
        yield spy
        assert spy.armed
        assert spy.gauges_asked == []
        assert spy.counters_asked == []

    def test_blockstore_put(self, spy):
        from repro.data import BlockStore, FileNamespace

        fs = FileNamespace(BlockStore(nodes=2, replicas=2, chunk_size=64))
        spy.arm()
        fs.write("p", b"x" * 640)  # nine of ten chunks are dedup hits
        assert spy.counter("repro_blockstore_dedup_hits_total").value() == 9

    def test_cache_get_and_ledger_charge(self, spy):
        from repro.cluster import ClusterManager, Node
        from repro.cluster.manager import JobKind
        from repro.cluster.node import Resources
        from repro.paramserver import LRUCache
        from repro.tenancy import TenantQuota, TenantRegistry

        cache = LRUCache(1024, size_of=len, name="spied")
        cache.put("k", b"value")
        tenants = TenantRegistry()
        tenants.register("acme", quota=TenantQuota(trials=4))
        manager = ClusterManager(tenants=tenants)
        manager.add_node(Node("n0", capacity=Resources(cpus=8, gpus=4, memory_gb=64)))
        # the submit's passed check is the pair's first sighting: it
        # registers the usage reader
        manager.submit_job(JobKind.TRAIN, "t", num_workers=1, tenant="acme")
        spy.arm()
        assert cache.get("k") == b"value" and cache.get("absent") is None
        tenants.check("acme", "trials", 3)
        assert tenants.usage("acme", "trials") == 1.0
        assert spy.counter("repro_cache_hits_total").value(cache="spied") == 1

    def test_ps_put_get_and_chunk_reads(self, spy):
        from repro.data import BlockStore, DataStore
        from repro.paramserver import ParameterServer

        blocks = BlockStore(nodes=3, replicas=2, chunk_size=256)
        store = DataStore("ps", block_store=blocks)
        # each shard's cache holds exactly one 4 KiB state
        server = ParameterServer(store=store, shards=2, cache_bytes=2 * 4096)
        state = {"w": np.zeros(1024, dtype=np.float32)}
        server.put("a", state)
        spy.arm()
        state["w"][:8] = 1.0
        server.put("a", state)  # a near-duplicate: dedup hits; evicts v1
        assert server.get("a", version=1)["w"][0] == 0.0  # cold: chunk reads
        assert server.get("a", version=1)["w"][0] == 0.0  # warm: the cache
        requests = spy.counter("repro_blockstore_requests_total")
        reads = sum(
            requests.value(node=node.name, op="get", outcome="ok") for node in blocks.nodes
        )
        assert reads == len(store.fs.stat(server.get_entry("a", 1).path).digests)
        assert spy.counter("repro_blockstore_dedup_hits_total").value() > 0
        assert spy.counter("repro_paramserver_push_total").value() == 2
        assert spy.counter("repro_paramserver_pull_total").value() == 2
        caches = [shard.cache.name for shard in server.shards]
        for family in ("hits", "misses", "evictions"):
            counter = spy.counter(f"repro_cache_{family}_total")
            assert sum(counter.value(cache=name) for name in caches) >= 1, family

    def test_frontend_poll_and_complete(self, spy):
        from repro.core.serve import FrontendConfig, ServeFrontend

        frontend = ServeFrontend(
            FrontendConfig(latency=lambda b: 0.01, tau=0.5, batch_sizes=(2,))
        )
        spy.arm()
        for client in ("a", "b"):
            frontend.offer(client, None, 0.0)
        (plan,) = frontend.poll(0.0)
        frontend.complete(plan, 0.02)
        assert frontend.served == 2
        assert spy.histogram("repro_serve_batch_size").child_state()[2] == 1

    def test_warm_sql_query(self, spy):
        from repro.sqlext import Column, Database

        db = Database()
        db.create_table("t", [Column("x", "integer")])
        for value in (1, 2, 2, 3):
            db.insert("t", x=value)
        db.udfs.register("f", lambda v: v * 10)
        sql = "SELECT f(x) AS y, count(*) AS n FROM t WHERE x > 1 GROUP BY y"
        db.execute(sql)  # cold: the first call of ``f`` binds its counters
        spy.arm()
        assert db.execute(sql).rows == [(20, 2), (30, 1)]  # warm: all cache hits
        db.execute(sql, executor="naive")
        assert spy.counter("repro_sql_cache_hits_total").value(udf="f") == 1 + 3
        assert spy.counter("repro_sql_udf_batches_total").value(udf="f") == 1
        assert spy.counter("repro_sql_queries_total").value(executor="planned") == 2
        assert spy.counter("repro_sql_udf_calls_total").value(executor="naive") == 3
        assert spy.counter("repro_sql_rows_scanned_total").value(table="t") == 3 * 4

    def test_warm_gateway_queries(self, spy, tiny_dataset):
        import asyncio

        from serve_helpers import deploy_untrained

        from repro.api.gateway import Gateway, make_query_executor
        from repro.core.serve.frontend import AsyncServeFrontend, FrontendConfig
        from repro.core.system import Rafiki

        system = Rafiki(seed=5)
        infer_id = deploy_untrained(system, tiny_dataset)
        gateway = Gateway(system)
        frontend = AsyncServeFrontend(
            FrontendConfig(latency=lambda b: 0.001, tau=0.5, batch_sizes=(1,)),
            make_query_executor(system, infer_id),
        )
        path, body = f"/query/{infer_id}", {"img": tiny_dataset.test_x[0]}

        async def twice():
            async with frontend:
                for _ in range(2):
                    assert (await gateway.handle_async("POST", path, body)).ok

        for _ in range(2):  # the first request of each binds its series
            assert gateway.handle("POST", path, body).ok
        gateway.attach_frontend(infer_id, frontend)
        asyncio.run(twice())
        spy.arm()
        assert gateway.handle("POST", path, body).ok
        asyncio.run(twice())
        requests = spy.counter("repro_gateway_requests_total")
        assert requests.value(method="POST", route="/query/{job_id}", status="200",
                              tenant="default") == 2 + 2 + 1 + 2
        seconds = spy.histogram("repro_gateway_request_seconds")
        assert seconds.child_state(route="/query/{job_id}")[2] == 7

    def test_rafiki_query(self, spy, tiny_dataset):
        from serve_helpers import deploy_untrained

        from repro.core.system import Rafiki

        system = Rafiki(seed=5)
        infer_id = deploy_untrained(system, tiny_dataset)
        spy.arm()
        system.query(infer_id, tiny_dataset.test_x[:4])
        system.query(infer_id, tiny_dataset.test_x[:4])  # answered by the cache


class TestHistogramBuckets:
    BOUNDS = (0.1, 1.0, 10.0)

    def _hist(self):
        return telemetry.get_registry().histogram("h", buckets=self.BOUNDS)

    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus le-semantics: a bucket with bound b counts values <= b.
        hist = self._hist()
        hist.observe(0.1)
        hist.observe(1.0)
        hist.observe(10.0)
        counts, total, count = hist.child_state()
        assert counts == [1, 1, 1, 0]
        assert total == pytest.approx(11.1)
        assert count == 3

    def test_above_max_bound_goes_to_inf(self):
        hist = self._hist()
        hist.observe(10.000001)
        hist.observe(1e9)
        assert hist.child_state()[0] == [0, 0, 0, 2]

    def test_below_min_bound_goes_to_first_bucket(self):
        hist = self._hist()
        hist.observe(0.0)
        hist.observe(-5.0)
        assert hist.child_state()[0] == [2, 0, 0, 0]

    def test_observe_many_matches_repeated_observe(self):
        values = [0.05, 0.1, 0.5, 1.0, 1.5, 10.0, 11.0, -1.0]
        registry = telemetry.get_registry()
        one = registry.histogram("one", buckets=self.BOUNDS)
        many = registry.histogram("many", buckets=self.BOUNDS)
        for v in values:
            one.observe(v)
        many.observe_many(np.asarray(values))
        assert one.child_state() == many.child_state()

    def test_observe_many_empty_is_noop(self):
        hist = self._hist()
        hist.observe_many([])
        assert hist.child_state() == ([0, 0, 0, 0], 0.0, 0)

    def test_invalid_buckets_rejected(self):
        registry = telemetry.get_registry()
        with pytest.raises(TelemetryError):
            registry.histogram("empty", buckets=())
        with pytest.raises(TelemetryError):
            registry.histogram("unsorted", buckets=(1.0, 0.5))

    def test_bounds_fixed_by_first_creation(self):
        registry = telemetry.get_registry()
        first = registry.histogram("fixed", buckets=(1.0, 2.0))
        again = registry.histogram("fixed", buckets=(9.0,))
        assert again is first
        assert again.buckets == (1.0, 2.0)


class TestTracer:
    def test_nesting_records_parent_and_exact_durations(self, manual_clock):
        tracer = telemetry.get_tracer()
        with tracer.span("outer", study="s") as outer:
            manual_clock.advance(1.0)
            with tracer.span("inner") as inner:
                manual_clock.advance(0.25)
            manual_clock.advance(0.5)
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.duration == pytest.approx(0.25)
        assert outer.duration == pytest.approx(1.75)

    def test_export_orders_parents_before_children(self, manual_clock):
        tracer = telemetry.get_tracer()
        with tracer.span("outer"):
            manual_clock.advance(1.0)
            with tracer.span("inner"):
                manual_clock.advance(1.0)
        exported = tracer.export()
        assert [s["name"] for s in exported] == ["outer", "inner"]
        assert json.loads(json.dumps(exported)) == exported

    def test_span_closes_on_exception(self, manual_clock):
        tracer = telemetry.get_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                manual_clock.advance(2.0)
                raise RuntimeError("boom")
        (span,) = tracer.spans
        assert span.duration == pytest.approx(2.0)

    def test_disabled_tracer_records_nothing(self):
        tracer = telemetry.get_tracer()
        tracer.enabled = False
        with tracer.span("ghost") as span:
            span.tag(extra=1)
        assert tracer.spans == []

    def test_overflow_drops_oldest(self, manual_clock):
        tracer = Tracer(clock=manual_clock, max_spans=2)
        for name in ("a", "b", "c"):
            with tracer.span(name):
                manual_clock.advance(1.0)
        assert [s.name for s in tracer.spans] == ["b", "c"]
        assert tracer.dropped == 1

    def test_interleaved_tasks_keep_their_own_parents(self, manual_clock):
        import asyncio

        tracer = Tracer(clock=manual_clock)

        async def request(name: str):
            with tracer.span(f"{name}.outer") as outer:
                await asyncio.sleep(0)  # the other task opens its spans here
                with tracer.span(f"{name}.inner") as inner:
                    await asyncio.sleep(0)
            with tracer.span(f"{name}.after") as after:
                pass
            return outer, inner, after

        async def both():
            return await asyncio.gather(request("a"), request("b"))

        for outer, inner, after in asyncio.run(both()):
            assert outer.parent_id is None
            assert inner.parent_id == outer.span_id
            assert after.parent_id is None
        with tracer.span("later") as later:
            pass
        assert later.parent_id is None


def _golden_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    counter = registry.counter("repro_demo_requests_total", "Demo requests.")
    counter.inc(2, route="/a")
    counter.inc(route="/b")
    registry.gauge("repro_demo_depth", "Demo queue depth.").set(3)
    hist = registry.histogram("repro_demo_seconds", "Demo latency.",
                              buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    hist.observe(2.0)
    return registry


class TestExporters:
    def test_json_snapshot_golden(self):
        assert snapshot(_golden_registry()) == {
            "counters": {
                "repro_demo_requests_total": {
                    "help": "Demo requests.",
                    "values": {"route=/a": 2.0, "route=/b": 1.0},
                }
            },
            "gauges": {
                "repro_demo_depth": {
                    "help": "Demo queue depth.",
                    "values": {"": 3.0},
                }
            },
            "histograms": {
                "repro_demo_seconds": {
                    "help": "Demo latency.",
                    "bounds": [0.1, 1.0],
                    "series": {
                        "": {"buckets": [1, 1, 1], "sum": 2.55, "count": 3}
                    },
                }
            },
        }

    def test_to_json_is_deterministic_and_parseable(self):
        text = to_json(_golden_registry())
        assert text == to_json(_golden_registry())
        assert json.loads(text) == snapshot(_golden_registry())

    def test_to_json_includes_spans_when_tracer_given(self, manual_clock):
        tracer = Tracer(clock=manual_clock)
        with tracer.span("op"):
            manual_clock.advance(1.0)
        data = json.loads(to_json(MetricsRegistry(), tracer))
        assert data["spans"][0]["name"] == "op"
        assert data["spans"][0]["duration"] == 1.0

    def test_prometheus_exposition_golden(self):
        assert render_prometheus(_golden_registry()) == (
            "# HELP repro_demo_depth Demo queue depth.\n"
            "# TYPE repro_demo_depth gauge\n"
            "repro_demo_depth 3\n"
            "# HELP repro_demo_requests_total Demo requests.\n"
            "# TYPE repro_demo_requests_total counter\n"
            'repro_demo_requests_total{route="/a"} 2\n'
            'repro_demo_requests_total{route="/b"} 1\n'
            "# HELP repro_demo_seconds Demo latency.\n"
            "# TYPE repro_demo_seconds histogram\n"
            'repro_demo_seconds_bucket{le="0.1"} 1\n'
            'repro_demo_seconds_bucket{le="1"} 2\n'
            'repro_demo_seconds_bucket{le="+Inf"} 3\n'
            "repro_demo_seconds_sum 2.55\n"
            "repro_demo_seconds_count 3\n"
        )

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(path='a"b\\c\nd')
        assert r'path="a\"b\\c\nd"' in render_prometheus(registry)

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestDashboardIntegration:
    def test_dashboard_data_round_trips_with_telemetry(self):
        from repro.api.monitor import dashboard_data, render_dashboard
        from repro.core.system import Rafiki

        system = Rafiki(nodes=2, gpus_per_node=2, seed=0)
        for node_name in list(system.cluster.nodes):
            system.cluster.heartbeat(node_name)
        data = dashboard_data(system)
        assert json.loads(json.dumps(data)) == data
        flat = data["telemetry"]
        assert flat["counters"]["repro_cluster_heartbeats_total{node=node-a}"] == 1
        assert flat["gauges"]["repro_cluster_nodes_alive"] == 2
        text = render_dashboard(system)
        assert "=== telemetry ===" in text
        assert "repro_cluster_heartbeats_total" in text

    def test_gateway_requests_recorded_per_route(self, manual_clock):
        from repro.api.gateway import Gateway
        from repro.core.system import Rafiki

        gateway = Gateway(Rafiki(nodes=1, gpus_per_node=1, seed=0))

        def timed_handle(*request):
            manual_clock.advance(0.002)
            return gateway.handle(*request)

        assert timed_handle("GET", "/datasets").status == 200
        assert timed_handle("GET", "/train/nope").status == 404
        assert timed_handle("GET", "/no/such/route").status == 404
        registry = telemetry.get_registry()
        counter = registry.counter("repro_gateway_requests_total")
        assert counter.value(method="GET", route="/datasets", status="200", tenant="default") == 1
        assert counter.value(method="GET", route="/train/{job_id}", status="404", tenant="default") == 1
        assert counter.value(method="GET", route="(unmatched)", status="404", tenant="default") == 1
        hist = registry.histogram("repro_gateway_request_seconds")
        assert hist.child_state(route="/datasets")[2] == 1

    def test_serve_clock_injection_is_honoured(self, manual_clock):
        # Satellite fix: profiler timing flows through the telemetry
        # clock, so a manual clock makes measurements deterministic.
        from repro.core.serve.profiler import profile_network
        from repro.zoo.builders import build_mlp

        network = build_mlp((12,), 3, np.random.default_rng(0), hidden=(8,))
        profile = profile_network(network, "mlp", batch_sizes=(1, 2),
                                  iterations=1, clock=manual_clock.now)
        assert profile.overhead_s == 0.0
        assert profile.per_image_s > 0.0
        spans = [s for s in telemetry.get_tracer().spans
                 if s.name == "profile_network"]
        assert spans and spans[-1].tags["model"] == "mlp"


class TestTelemetryDocstrings:
    """Satellite: every public item under repro.telemetry is documented."""

    def _modules(self):
        package = importlib.import_module("repro.telemetry")
        yield package
        for mod in pkgutil.walk_packages(package.__path__, prefix="repro.telemetry."):
            yield importlib.import_module(mod.name)

    def test_every_module_documented(self):
        undocumented = [m.__name__ for m in self._modules() if not m.__doc__]
        assert undocumented == []

    def test_every_public_member_documented(self):
        undocumented = []
        for module in self._modules():
            exported = getattr(module, "__all__", None)
            names = exported if exported is not None else [
                n for n in vars(module) if not n.startswith("_")
            ]
            for name in names:
                obj = getattr(module, name)
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", "").startswith("repro.telemetry"):
                    if not inspect.getdoc(obj):
                        undocumented.append(f"{module.__name__}.{name}")
                    if inspect.isclass(obj):
                        for mname, member in inspect.getmembers(obj, inspect.isfunction):
                            if mname.startswith("_"):
                                continue
                            if not inspect.getdoc(member):
                                undocumented.append(f"{obj.__name__}.{mname}")
        assert sorted(set(undocumented)) == []
