"""Telemetry layer: registry, tracer, exporters, dashboard round-trip."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import pkgutil
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.exceptions import TelemetryError
from repro.telemetry import (
    Counter,
    Gauge,
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

    def test_gauge_set_overwrites(self):
        gauge = telemetry.get_registry().gauge("depth")
        gauge.set(10)
        gauge.set(13)
        assert gauge.value() == 13

    def test_get_or_create_returns_same_family(self):
        registry = telemetry.get_registry()
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_kind_mismatch_raises(self):
        registry = telemetry.get_registry()
        registry.counter("thing")
        with pytest.raises(TelemetryError):
            registry.gauge("thing")

    def test_reset_drops_all_families(self):
        registry = telemetry.get_registry()
        registry.counter("c_total").inc()
        registry.reset()
        assert registry.metrics() == []

    def test_a_live_owner_lists_only_what_it_records_after_a_reset(self):
        """Regression: a family dropped by a reset stayed joined, so a live
        owner went on counting into it unlisted, before and after mixed."""
        from repro.paramserver import LRUCache

        cache = LRUCache(1024, size_of=len, name="x")
        cache.put("k", b"value")
        cache.get("k")
        telemetry.reset()
        cache.get("k")
        cache.get("k")
        hits = telemetry.get_registry().get("repro_cache_hits_total")
        assert hits is not None and hits.snapshot() == {"cache=x": 2.0}


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

    def test_rejects_a_negative_amount(self):
        child = telemetry.get_registry().counter("c_total").labels(route="/a")
        with pytest.raises(TelemetryError):
            child.inc(-1)
        assert telemetry.get_registry().counter("c_total").label_keys() == []


class TestTheRecordAndTheSeriesPart:
    """An owner's count is everything it ever counted; the registry
    series holds only what was recorded since the last reset. Each test
    records, resets and records again."""

    def test_lru_cache(self):
        from repro.paramserver import LRUCache

        registry = telemetry.get_registry()
        cache = LRUCache(8, size_of=len, name="parted")
        cache.put("a", b"1234")
        cache.get("a")
        cache.get("absent")
        cache.put("b", b"12345")  # evicts "a"
        registry.reset()
        cache.get("b")
        cache.get("b")
        counts = (cache.hits, cache.misses, cache.evictions)
        assert counts == (3, 1, 1) and all(type(n) is int for n in counts)
        assert cache.hit_rate == 0.75
        assert registry.snapshot()["counters"] == {
            "repro_cache_hits_total": {
                "help": "Named-cache lookup hits.", "values": {"cache=parted": 2.0},
            },
        }

    def test_block_store(self):
        from repro.data import BlockStore

        registry = telemetry.get_registry()
        store = BlockStore(nodes=3, replicas=2, chunk_size=4)
        store.put(b"abcdabcd")  # one chunk stored, one dedup hit
        holder = next(node.name for node in store.nodes if node.chunks)
        store.kill_node(holder)  # its chunk is re-copied elsewhere
        store.rejoin_node(holder)  # and the stale copy reconciled away
        before = store.audit()
        registry.reset()
        store.put(b"abcdabcdabcd")  # three dedup hits
        after = store.audit()
        for name in ("dedup_hits", "rereplications", "trash_reconciled"):
            assert type(after[name]) is int
        assert (before["dedup_hits"], after["dedup_hits"]) == (1, 4)
        assert after["rereplications"] == before["rereplications"] > 0
        assert after["trash_reconciled"] == before["trash_reconciled"] > 0
        counters = registry.snapshot()["counters"]
        assert counters["repro_blockstore_dedup_hits_total"]["values"] == {"": 3.0}
        for name in ("node_deaths", "rereplications", "trash_reconciled"):
            assert f"repro_blockstore_{name}_total" not in counters

    def test_costudy_and_its_checkpoint(self):
        from repro.core.tune import (
            CoStudy, CoStudyMaster, HyperConf, RandomSearchAdvisor, SurrogateTrainer,
            Trial, make_workers, run_study, section71_space,
        )
        from repro.paramserver import ParameterServer

        registry = telemetry.get_registry()
        conf, ps = HyperConf(max_trials=4, max_epochs_per_trial=5), ParameterServer()
        advisor = RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(0))
        master = CoStudyMaster("s", conf, advisor, ps, rng=np.random.default_rng(0))
        run_study(master, make_workers(master, SurrogateTrainer(seed=0), ps, conf, 2))
        (costudy,) = master.schedulers
        before = costudy.checkpoint_state()
        registry.reset()
        for _ in range(3):
            costudy.on_trial_add(Trial({}))
        state = costudy.checkpoint_state()
        inits = (state["random_inits"], state["warm_inits"])
        assert all(type(n) is int for n in inits)
        assert sum(inits) == before["random_inits"] + before["warm_inits"] + 3 > 3
        series = registry.snapshot()["counters"]["repro_tune_costudy_inits_total"]["values"]
        assert sum(series.values()) == 3.0
        restored = CoStudy()
        restored.restore_state(state)
        assert restored.checkpoint_state() == state
        # a restore sets the record, not the series
        assert registry.snapshot()["counters"]["repro_tune_costudy_inits_total"]["values"] \
            == series


class TestNonFiniteValuesAreRefused:
    """Regression: a counter took NaN and infinity (``amount < 0`` passes
    both) and read NaN from then on; a histogram filed NaN in its first
    bucket through a child's ``observe`` and in ``+Inf`` through
    ``observe_many``, and both poisoned its sum."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_by_a_counter_and_its_children(self, value):
        registry = telemetry.get_registry()
        counter = registry.counter("c_total")
        child = counter.labels(route="/a")
        owned = Counter("d_total", "D.", registry).labels()
        for record in (counter.inc, child.inc, owned.inc):
            with pytest.raises(TelemetryError):
                record(value)
        assert counter.snapshot() == {} and registry.get("d_total") is None
        assert (child.count, owned.count) == (0, 0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_by_a_histogram_and_its_children(self, value):
        registry = telemetry.get_registry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        owned = Histogram("owned", "O.", registry, buckets=(1.0,))
        for record in (histogram.labels().observe, histogram.labels(route="/a").observe,
                       owned.labels().observe):
            with pytest.raises(TelemetryError):
                record(value)
        for many in (histogram.observe_many, owned.observe_many):
            with pytest.raises(TelemetryError):
                many(np.array([0.5, value]))
        assert histogram.snapshot()["series"] == {} and registry.get("owned") is None


class TestHistogramLabels:
    def test_lands_in_the_same_series_as_observe_with_labels(self):
        histogram = telemetry.get_registry().histogram("h_seconds", buckets=(1.0, 2.0))
        child = histogram.labels(route="/a", method="GET")
        child.observe(0.5)
        histogram.observe_many([1.5], method="GET", route="/a")
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

    def test_an_owner_built_family_joins_at_its_first_observe_many(self):
        registry = telemetry.get_registry()
        owned = Histogram("h_seconds", "H.", registry, buckets=(1.0,))
        owned.observe_many([])
        assert registry.get("h_seconds") is None
        owned.observe_many([0.5, 2.0], node="x")
        series = registry.snapshot()["histograms"]["h_seconds"]["series"]
        assert series == {"node=x": {"buckets": [1, 1], "sum": 2.5, "count": 2}}
        # a second owner's family records into the one already listed
        Histogram("h_seconds", "H.", registry, buckets=(1.0,)).observe_many([3.0], node="x")
        assert registry.histogram("h_seconds").child_state(node="x") == ([1, 2], 5.5, 3)


class TestOwnerBuiltGauge:
    def test_joins_at_its_first_set(self):
        registry = telemetry.get_registry()
        gauge = Gauge("g", "G.", registry)
        assert registry.get("g") is None
        gauge.set(3, name="a")
        # a second owner's gauge sets into the one already listed
        Gauge("g", "G.", registry).set(4, name="b")
        assert registry.gauge("g").snapshot() == {"name=a": 3.0, "name=b": 4.0}

    def test_a_reset_drops_its_values(self):
        registry = telemetry.get_registry()
        gauge = Gauge("g", "G.", registry)
        gauge.set(3, name="a")
        registry.reset()
        gauge.set(4, name="b")
        assert registry.gauge("g").snapshot() == {"name=b": 4.0}


def test_src_looks_up_only_the_allowed_families_per_event():
    """Every family is built by its owner. Two lookups stay: a fault plan
    is built before its scenario installs the registry the trace reads,
    and ``profile_network`` is a free function with no owner."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("tally", root / "tools" / "tally.py")
    tally = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tally)
    assert tally.lookup_sites() == [
        "repro/chaos/faults.py:FaultPlan.fire",
        "repro/core/serve/profiler.py:profile_network",
    ]


def test_src_writes_no_state_that_nothing_reads():
    """Every attribute ``src/`` writes (dataclass fields included) is read
    outside the tests. Three exception fields stay, nothing or only tests
    reading them: they are part of an error a caller catches, and its
    message is built from each. ``JobRecord.pending_reason`` stays too: it
    is why a job is still pending, which the tracer is to report."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("tally", root / "tools" / "tally.py")
    tally = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tally)
    assert tally.unread_attributes() == (
        [
            "repro/exceptions.py:QuotaExceededError.used",
            "repro/exceptions.py:QuotaExceededError.requested",
        ],
        [
            "repro/cluster/manager.py:JobRecord.pending_reason",
            "repro/exceptions.py:RetryExhaustedError.attempts",
        ],
    )


class _Owner(list):
    """A list that can be held weakly, as every registered owner is."""


class TestGaugeSetFunction:
    def test_reads_live_state_when_looked_at(self):
        queue = _Owner()
        gauge = telemetry.get_registry().gauge("depth")
        gauge.set_function(queue, len, tenant="a")
        assert gauge.value(tenant="a") == 0
        queue.extend("xyz")
        assert gauge.value(tenant="a") == 3
        assert gauge.label_keys() == [(("tenant", "a"),)]
        assert gauge.snapshot() == {"tenant=a": 3.0}
        assert isinstance(gauge.snapshot()["tenant=a"], float)

    def test_registering_again_replaces_the_reader(self):
        gauge, owner = telemetry.get_registry().gauge("depth"), _Owner()
        gauge.set_function(owner, lambda _: 1, owner="x")
        gauge.set_function(owner, lambda _: 2, owner="x")
        gauge.set_function(owner, lambda _: 5, owner="y")
        assert gauge.snapshot() == {"owner=x": 2.0, "owner=y": 5.0}

    def test_set_and_set_function_overwrite_each_other(self):
        gauge, owner = telemetry.get_registry().gauge("depth"), _Owner()
        gauge.set(7)
        gauge.set_function(owner, lambda _: 8)
        assert gauge.snapshot() == {"": 8.0}
        gauge.set(9)
        assert gauge.snapshot() == {"": 9.0}

    def test_reset_forgets_readers(self):
        registry, owner = telemetry.get_registry(), _Owner()
        registry.gauge("depth").set_function(owner, lambda _: 4)
        registry.reset()
        assert registry.metrics() == []
        assert registry.gauge("depth").label_keys() == []

    def test_a_reader_that_holds_its_owner_is_refused(self):
        gauge, owner = telemetry.get_registry().gauge("depth"), _Owner()
        with pytest.raises(TypeError, match="holds its owner"):
            gauge.set_function(owner, lambda _: len(owner))
        with pytest.raises(TypeError, match="holds its owner"):
            gauge.set_function(owner, owner.__len__)
        assert gauge.label_keys() == []

    def test_exposition_is_byte_equal_to_the_same_value_set(self):
        pushed, read, owner = MetricsRegistry(), MetricsRegistry(), _Owner()
        for value, labels in ((3, {}), (2.5, {"kind": "unique"}), (1e18, {"kind": "big"})):
            pushed.gauge("repro_demo_depth", "Demo.").set(value, **labels)
            read.gauge("repro_demo_depth", "Demo.").set_function(
                owner, lambda _, value=value: value, **labels
            )
        assert to_json(read) == to_json(pushed)
        assert render_prometheus(read) == render_prometheus(pushed)


_PACKAGE = Path(telemetry.__file__).resolve().parent.parent


class _RegistrySpy(MetricsRegistry):
    """A registry that, once armed, remembers every counter, histogram or
    gauge family the package itself looks up. Lookups from tests, made to
    read values, stay allowed."""

    def __init__(self):
        super().__init__()
        self.armed = False
        self.lookups: list[tuple[str, str]] = []

    def arm(self):
        """The owners are built: lookups from here on are per event."""
        self.armed = True

    def _note(self, name):
        caller = sys._getframe(2).f_code if self.armed else None
        if caller is not None and _PACKAGE in Path(caller.co_filename).resolve().parents:
            self.lookups.append((name, f"{Path(caller.co_filename).name}:{caller.co_name}"))

    def counter(self, name, help=""):
        self._note(name)
        return super().counter(name, help)

    def gauge(self, name, help=""):
        self._note(name)
        return super().gauge(name, help)

    def histogram(self, name, help="", **kwargs):
        self._note(name)
        return super().histogram(name, help, **kwargs)


class TestHotPathsTouchNoGauge:
    """Every family is built by its owner, and state gauges registered,
    where the owner is built: once the owners are built, nothing in the
    package looks a counter, histogram or gauge up, on any path."""

    @pytest.fixture
    def spy(self):
        """Installed before the test builds its owners, armed once they are."""
        spy = _RegistrySpy()
        set_registry(spy)
        yield spy
        assert spy.armed
        assert spy.lookups == []

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
        assert tenants.ledger.usage("acme", "trials") == 1.0
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

    def test_warm_greedy_serving_cycle_with_a_shed(self, spy):
        from repro.core.serve import FrontendConfig, GreedyBatcher, ServeFrontend
        from repro.exceptions import RequestShedError

        latency = lambda b: 0.01  # noqa: E731
        frontend = ServeFrontend(
            FrontendConfig(latency=latency, tau=0.5, batch_sizes=(2,), max_queue=2),
            policy=GreedyBatcher((2,), latency, tau=0.5, models=(0,)),
        )

        def cycle(now):
            for client in ("a", "b"):
                frontend.offer(client, None, now)
            with pytest.raises(RequestShedError):
                frontend.offer("c", None, now)  # queue_full
            (plan,) = frontend.poll(now)
            frontend.complete(plan, now + 1.0)  # overran tau

        cycle(0.0)
        spy.arm()
        cycle(2.0)
        assert spy.counter("repro_serve_frontend_shed_total").value(
            reason="queue_full", tenant="default") == 2
        assert spy.counter("repro_serve_frontend_requests_total").value(
            outcome="admitted", tenant="default") == 4
        assert spy.counter("repro_serve_frontend_overdue_total").value() == 4
        assert spy.counter("repro_serve_batcher_decisions_total").value(
            action="dispatch") == 2
        assert spy.histogram("repro_serve_frontend_latency_seconds").child_state()[2] == 4

    def test_rl_decide_and_complete(self, spy):
        from repro.core.serve import FrontendConfig, RLController, ServeFrontend
        from repro.zoo import get_profile

        profile = get_profile("inception_v3")
        frontend = ServeFrontend(
            FrontendConfig(latency=profile.inference_time, tau=0.56),
            policy=RLController([profile], (16, 32), 0.56, seed=0),
        )
        spy.arm()
        for index in range(20):
            frontend.offer(f"c{index}", None, 0.0)
        plans = frontend.poll(0.0)
        for plan in plans:
            frontend.complete(plan, 0.3)
        assert frontend.served == 20
        actions = spy.counter("repro_serve_rl_actions_total")
        assert actions.value(models="1") == len(plans) == frontend.policy.learner.decisions

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

    @staticmethod
    def _study(scheduler=None, max_trials=1):
        from repro.core.tune import (
            HyperConf,
            RandomSearchAdvisor,
            StudyMaster,
            SurrogateTrainer,
            make_workers,
            section71_space,
        )
        from repro.paramserver import ParameterServer

        conf = HyperConf(max_trials=max_trials, max_epochs_per_trial=3)
        server = ParameterServer()
        master = StudyMaster("spied", conf, RandomSearchAdvisor(
            section71_space(), rng=np.random.default_rng(0)), server, scheduler=scheduler)
        return master, make_workers(master, SurrogateTrainer(seed=0), server, conf, 1)

    def test_surrogate_worker_epochs_and_finish(self, spy):
        from repro.core.tune import run_study

        master, workers = self._study()
        spy.arm()
        report = run_study(master, workers)
        epochs = spy.counter("repro_tune_epochs_total").value(tenant="default")
        assert epochs == report.total_epochs > 0
        assert sum(spy.counter("repro_tune_trials_completed_total").snapshot().values()) == 1
        assert spy.histogram("repro_tune_epoch_seconds").child_state()[2] == epochs
        assert spy.counter("repro_tune_studies_completed_total").value() == 1
        assert spy.gauge("repro_tune_study_wall_seconds").value() == report.wall_time

    def test_costudy_trial_add(self, spy):
        from repro.core.tune import CoStudy, run_study

        master, workers = self._study(CoStudy(rng=np.random.default_rng(1)), max_trials=3)
        spy.arm()
        run_study(master, workers)
        inits = spy.counter("repro_tune_costudy_inits_total")
        assert inits.value(kind="random") + inits.value(kind="warm") == 3
        assert spy.counter("repro_tune_costudy_syncs_total").value() >= 1

    def test_cluster_heartbeat_submit_and_node_failure(self, spy):
        from repro.cluster import ClusterManager, Node
        from repro.cluster.manager import JobKind
        from repro.cluster.node import Resources

        manager = ClusterManager()
        for name in ("n0", "n1"):
            manager.add_node(Node(name, capacity=Resources(cpus=4, gpus=1, memory_gb=16)))
        spy.arm()
        job = manager.submit_job(JobKind.TRAIN, "t", num_workers=1)
        manager.fail_node(job.containers[0].node_name)  # restarted on the other node
        assert spy.counter("repro_cluster_jobs_submitted_total").value(
            kind="train", tenant="default") == 1
        assert spy.counter("repro_cluster_node_failures_total").value() == 1
        assert spy.counter("repro_cluster_recoveries_total").value() >= 1

    def test_quota_denial(self, spy):
        from repro.exceptions import QuotaExceededError
        from repro.tenancy import TenantQuota, TenantRegistry

        tenants = TenantRegistry()
        tenants.register("acme", quota=TenantQuota(trials=1))
        spy.arm()
        with pytest.raises(QuotaExceededError):
            tenants.check("acme", "trials", 2)
        denials = spy.counter("repro_tenant_quota_denials_total")
        assert denials.value(tenant="acme", resource="trials") == 1

    def test_blockstore_heartbeat_kill_and_rejoin(self, spy):
        from repro.data import BlockStore, FileNamespace

        store = BlockStore(nodes=3, replicas=2, chunk_size=64)
        fs = FileNamespace(store)
        fs.write("p", bytes(range(256)))
        spy.arm()
        store.kill_node("dn-0")  # its chunks are re-copied past the factor
        store.rejoin_node("dn-0")  # ... so its own copies are stale
        assert spy.counter("repro_blockstore_node_deaths_total").value(node="dn-0") == 1
        assert sum(spy.counter("repro_blockstore_rereplications_total").snapshot().values())
        reconciled = spy.counter("repro_blockstore_trash_reconciled_total")
        assert reconciled.value(node="dn-0") == store.trash_reconciled > 0

    def test_ps_shard_death(self, spy):
        from repro.paramserver import ParameterServer

        server = ParameterServer(shards=2)
        spy.arm()
        server.kill_shard("ps-1")
        assert spy.counter("repro_paramserver_shard_deaths_total").value(shard="ps-1") == 1

    def test_exhausted_retry(self, spy):
        from repro.exceptions import RetryExhaustedError
        from repro.utils.retry import RetryPolicy

        policy = RetryPolicy(max_attempts=2, jitter=0.0)
        spy.arm()
        with pytest.raises(RetryExhaustedError):
            policy.call(lambda: 1 / 0, name="op")
        assert spy.counter("repro_retry_attempts_total").value(name="op") == 2
        assert spy.counter("repro_retry_exhausted_total").value(name="op") == 1

    def test_breaker_open_and_close(self, spy, manual_clock):
        from repro.utils.retry import CircuitBreaker

        breaker = CircuitBreaker(name="b", failure_threshold=1, recovery_time=1.0)
        spy.arm()
        breaker.record_failure()
        assert spy.gauge("repro_circuit_open").value(name="b") == 1.0
        manual_clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        transitions = spy.counter("repro_circuit_transitions_total")
        assert transitions.value(name="b", frm="half_open", to="closed") == 1
        assert spy.gauge("repro_circuit_open").value(name="b") == 0.0


class TestHistogramBuckets:
    BOUNDS = (0.1, 1.0, 10.0)

    def _hist(self):
        return telemetry.get_registry().histogram("h", buckets=self.BOUNDS)

    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus le-semantics: a bucket with bound b counts values <= b.
        hist = self._hist()
        for value in (0.1, 1.0, 10.0):
            hist.labels().observe(value)
        counts, total, count = hist.child_state()
        assert counts == [1, 1, 1, 0]
        assert total == pytest.approx(11.1)
        assert count == 3

    def test_above_max_bound_goes_to_inf(self):
        hist = self._hist()
        hist.labels().observe(10.000001)
        hist.labels().observe(1e9)
        assert hist.child_state()[0] == [0, 0, 0, 2]

    def test_below_min_bound_goes_to_first_bucket(self):
        hist = self._hist()
        hist.labels().observe(0.0)
        hist.labels().observe(-5.0)
        assert hist.child_state()[0] == [2, 0, 0, 0]

    def test_observe_many_matches_repeated_observe(self):
        values = [0.05, 0.1, 0.5, 1.0, 1.5, 10.0, 11.0, -1.0]
        registry = telemetry.get_registry()
        one = registry.histogram("one", buckets=self.BOUNDS)
        many = registry.histogram("many", buckets=self.BOUNDS)
        for v in values:
            one.labels().observe(v)
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
    for value in (0.05, 0.5, 2.0):
        hist.labels().observe(value)
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
        from repro.api.monitor import dashboard_data
        from repro.cluster.manager import JobKind
        from repro.core.system import Rafiki

        system = Rafiki(nodes=2, gpus_per_node=2, seed=0)
        system.cluster.submit_job(JobKind.TRAIN, "t", num_workers=1)
        data = dashboard_data(system)
        assert json.loads(json.dumps(data)) == data
        flat = data["telemetry"]
        assert flat["counters"][
            "repro_cluster_jobs_submitted_total{kind=train,tenant=default}"] == 1
        assert flat["gauges"]["repro_cluster_nodes_alive"] == 2

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
