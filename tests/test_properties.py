"""Property-based tests (hypothesis) over core data structures."""

import pickle
import pickletools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule
from serve_helpers import queue_of

from repro import chaos, telemetry
from repro.chaos import FaultKind, FaultPlan, FaultRule
from repro.chaos.scenarios.shard_kill import reads_through_each_shard
from repro.cluster import ClusterManager, Node
from repro.cluster.manager import JobKind, JobState
from repro.cluster.membership import preference_order
from repro.cluster.node import Resources
from repro.core.serve import FrontendConfig, ServeFrontend, SineArrival
from repro.core.tune import HyperSpace
from repro.data import BlockStore, DataStore, FileNamespace, PendingWrite, chunk_digest
from repro.exceptions import (
    ChunkLostError,
    InjectedFault,
    ParameterServerError,
    QuotaExceededError,
    RequestShedError,
    StorageError,
)
from repro.paramserver import LRUCache, ParameterServer
from repro.sim import Simulator
from repro.tenancy import TenantQuota, TenantRegistry, tenant_context
from repro.tenancy.registry import RESOURCES
from repro.utils.retry import CircuitBreaker
from repro.zoo import majority_vote


class TestLRUCacheProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from("abcdef"), st.integers(1, 20)),
            max_size=60,
        ),
        st.integers(10, 50),
    )
    def test_never_exceeds_capacity(self, operations, capacity):
        cache = LRUCache(capacity, size_of=lambda v: v, name="prop")
        for key, size in operations:
            cache.put(key, size)
            assert cache.used_bytes <= capacity

    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=40))
    def test_get_after_put_without_eviction(self, keys):
        cache = LRUCache(10_000, size_of=lambda v: 1, name="prop")
        stored = {}
        for i, key in enumerate(keys):
            cache.put(key, i)
            stored[key] = i
        for key, value in stored.items():
            assert cache.get(key) == value

    @given(st.lists(st.sampled_from("abcdef"), max_size=40))
    def test_hit_plus_miss_equals_gets(self, keys):
        cache = LRUCache(3, size_of=lambda v: 1, name="prop")
        cache.put("a", 1)
        for key in keys:
            cache.get(key)
        assert cache.hits + cache.misses == len(keys)


class TestRequestQueueProperties:
    @given(st.lists(st.floats(0, 1e6), max_size=50), st.integers(1, 20))
    def test_fifo_returns_in_arrival_order(self, times, pop):
        ordered = sorted(times)
        queue = queue_of(ordered)
        popped = queue.pop(pop)
        assert [r.arrival for r in popped] == ordered[: len(popped)]
        # a failed dispatch puts its batch back where it was
        queue.push_front(popped)
        assert [r.arrival for r in queue.pop(len(ordered))] == ordered

    @given(st.lists(st.integers(1, 30), max_size=20), st.integers(1, 100))
    def test_capacity_accounting(self, batches, capacity):
        frontend = ServeFrontend(FrontendConfig(
            latency=lambda b: 0.01, max_queue=capacity, deadline_slack=1e9))
        for count in batches:
            for _ in range(count):
                try:
                    frontend.offer("c", None, 0.0)
                except RequestShedError:
                    pass
        assert len(frontend.pending) <= capacity
        assert frontend.admitted == len(frontend.pending)
        assert frontend.admitted + frontend.outcomes.get("queue_full", 0) == sum(batches)

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=30), st.integers(1, 40))
    def test_waiting_times_are_non_negative_and_sorted(self, times, window):
        queue = queue_of(sorted(times))
        now = max(times)
        waits = queue.waiting_times(now, window)
        observed = waits[: min(len(times), window)]
        assert np.all(waits >= 0)
        # oldest first => non-increasing waits over the real entries
        assert np.all(np.diff(observed) <= 1e-12)


class TestSimulatorProperties:
    @given(st.lists(st.floats(0, 1000), max_size=40))
    def test_events_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(sim.now))
        sim.run_all()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(0.1, 10), min_size=1, max_size=10))
    def test_process_clock_accumulates_delays(self, delays):
        sim = Simulator()
        seen = []

        def proc():
            for delay in delays:
                yield delay
                seen.append(sim.now)

        sim.spawn(proc())
        sim.run_all()
        np.testing.assert_allclose(seen, np.cumsum(delays))


class TestMajorityVoteProperties:
    @given(st.integers(1, 5), st.integers(1, 30), st.integers(0, 10_000))
    def test_unanimous_always_wins(self, num_models, num_examples, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 10, size=num_examples)
        votes = np.tile(labels, (num_models, 1))
        out = majority_vote(votes, rng.random(num_models))
        np.testing.assert_array_equal(out, labels)

    @given(st.integers(0, 10_000))
    def test_winner_unchanged_by_extra_agreeing_model(self, seed):
        rng = np.random.default_rng(seed)
        votes = rng.integers(0, 4, size=(3, 20))
        accuracies = rng.random(3)
        winners = majority_vote(votes, accuracies)
        # add a fourth model that votes exactly the current winner
        boosted = np.vstack([votes, winners])
        out = majority_vote(boosted, np.append(accuracies, 0.0))
        np.testing.assert_array_equal(out, winners)

    @given(st.integers(0, 10_000))
    def test_prediction_is_someones_vote(self, seed):
        rng = np.random.default_rng(seed)
        votes = rng.integers(0, 5, size=(4, 15))
        out = majority_vote(votes, rng.random(4))
        for i in range(15):
            assert out[i] in votes[:, i]


class TestHyperSpaceProperties:
    @settings(max_examples=30)
    @given(
        st.lists(
            st.tuples(st.floats(-100, 100), st.floats(0.1, 100)),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 10_000),
    )
    def test_samples_respect_every_domain(self, domains, seed):
        space = HyperSpace()
        for i, (low, width) in enumerate(domains):
            space.add_range_knob(f"k{i}", "float", low, low + width)
        trial = space.sample(np.random.default_rng(seed))
        for i, (low, width) in enumerate(domains):
            assert low <= trial[f"k{i}"] < low + width

    @settings(max_examples=30)
    @given(st.integers(0, 10_000))
    def test_encode_is_unit_cube(self, seed):
        space = HyperSpace()
        space.add_range_knob("a", "float", 1e-4, 10.0, log_scale=True)
        space.add_range_knob("b", "int", 1, 100)
        space.add_categorical_knob("c", "str", ["x", "y", "z"])
        point = space.encode(space.sample(np.random.default_rng(seed)))
        assert np.all(point >= 0.0) and np.all(point <= 1.0)


class TestSineArrivalProperties:
    @given(st.floats(1, 5000), st.floats(10, 2000))
    def test_rate_bounded_by_peak(self, target, period):
        arrival = SineArrival(target, period)
        for t in np.linspace(0, 2 * period, 50):
            rate = arrival.rate(t)
            assert 0.0 <= rate <= arrival.gamma + arrival.intercept + 1e-9

    @given(st.floats(1, 1000), st.integers(0, 1000))
    def test_counts_are_non_negative(self, target, seed):
        arrival = SineArrival(target, 100.0, rng=np.random.default_rng(seed))
        assert all(arrival.count(t * 0.1, 0.1) >= 0 for t in range(100))


# ----------------------------------------------------------------------
# the gateway's body check against json.dumps
# ----------------------------------------------------------------------

_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    # wide ints: json.dumps refuses the one past sys.get_int_max_str_digits()
    st.sampled_from([700, 5000]).map(lambda digits: 10**digits),
    st.floats().map(np.float64),  # a float subclass: encodes
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(st.floats(), max_size=3).map(np.array),
    st.frozensets(st.integers(), max_size=2).map(set),
    st.binary(max_size=3),
)
_JSON_KEYS = st.one_of(
    st.text(max_size=3), st.integers(), st.floats(), st.booleans(), st.none(),
    st.floats().map(np.float64),
    st.integers(-5, 5).map(np.int64), st.binary(max_size=2), st.tuples(st.integers()),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_KEYS, children, max_size=3),
    ),
    max_leaves=12,
)


def _mutable_containers(value, seen=None) -> list:
    """Every list and dict reachable from ``value`` (each once)."""
    seen = set() if seen is None else seen
    found = []
    if isinstance(value, (list, tuple, dict)) and id(value) not in seen:
        seen.add(id(value))
        if not isinstance(value, tuple):
            found.append(value)
        for item in value.values() if isinstance(value, dict) else value:
            found += _mutable_containers(item, seen)
    return found


def _raises(call) -> bool:
    try:
        call()
    except (TypeError, ValueError, RecursionError):
        return True
    return False


class TestGatewayBodyCheckProperties:
    @settings(max_examples=300)
    @given(_JSON_VALUES, st.data())
    def test_check_raises_iff_json_dumps_raises(self, value, data):
        """The walk that replaced the JSON round trip refuses exactly
        what ``json.dumps`` refuses, shared references and cycles too."""
        import json

        from repro.api.gateway import _check_json

        containers = _mutable_containers(value)
        if containers and data.draw(st.booleans(), label="link"):
            # a shared reference: a cycle when the target reaches the holder
            holder = data.draw(st.sampled_from(containers), label="holder")
            target = data.draw(st.sampled_from(containers), label="target")
            if isinstance(holder, list):
                holder.append(target)
            else:
                holder["link"] = target
        assert _raises(lambda: _check_json(value)) == _raises(
            lambda: json.dumps(value)
        )

    @settings(max_examples=200)
    @given(st.data())
    def test_a_bad_leaf_deep_in_numeric_rows(self, data):
        """Rows of plain numbers are checked a level at a time; one leaf
        planted at depth 2 or 3 (a refused one, or a bool, which
        ``json.dumps`` takes) still decides the answer."""
        import json

        from repro.api.gateway import _check_json

        shape = data.draw(st.lists(st.integers(1, 4), min_size=2, max_size=3), label="shape")
        number = st.one_of(st.floats(), st.integers(-(2**70), 2**70))

        def build(dims):
            if not dims:
                return data.draw(number)
            return [build(dims[1:]) for _ in range(dims[0])]

        def retype(value):  # each row a list or a tuple
            if not isinstance(value, list):
                return value
            items = [retype(item) for item in value]
            return tuple(items) if data.draw(st.booleans()) else items

        rows = build(shape)
        holder = rows
        for size in shape[:-1]:
            holder = holder[data.draw(st.integers(0, size - 1))]
        holder[data.draw(st.integers(0, shape[-1] - 1))] = data.draw(st.sampled_from([
            np.float32(1.5), True, np.bool_(True), 10**700, 10**5000, {1},
            np.float64(2.5), np.int64(3), None, "s",
        ]), label="planted")
        body = {"images": retype(rows)}
        assert _raises(lambda: _check_json(body)) == _raises(lambda: json.dumps(body))


# ----------------------------------------------------------------------
# the parameter server's unpickle straight from a blob's chunks
# ----------------------------------------------------------------------


def _decoded_states() -> list:
    rng = np.random.default_rng(0)
    return [
        {},
        {"w": np.arange(5, dtype=np.int16)},
        # past the pickler's 64 KiB frame target: written outside any frame
        {"W": rng.standard_normal(20000).astype(np.float32),
         "b": np.zeros(3), "note": "a\nline", "scalar": np.float32(1.5)},
        {"F": np.asfortranarray(rng.standard_normal((30, 20))),
         "big_endian": np.arange(100, dtype=">f4"), "zero_d": np.array(2.0),
         "nested": [1, (2.5, "x"), {"k": None}]},
    ]


_PICKLES = [
    pickle.dumps(state, protocol)
    for state in _decoded_states()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
]


#: the width of the length in front of each byte-payload opcode's data
_LENGTH_BYTES = {"BYTEARRAY8": 8, "BINBYTES8": 8, "BINBYTES": 4, "SHORT_BINBYTES": 1}


def _split(blob: bytes, cuts) -> list[bytes]:
    bounds = [0, *sorted(set(cuts)), len(blob)]
    return [blob[start:stop] for start, stop in zip(bounds, bounds[1:])]


def _assert_same_state(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for name, value in want.items():
        assert type(got[name]) is type(value)
        if isinstance(value, np.ndarray):
            assert got[name].dtype == value.dtype and got[name].shape == value.shape
            assert got[name].tobytes() == value.tobytes()
            assert got[name].flags.writeable == value.flags.writeable
        else:
            assert got[name] == value


class TestChunkedUnpickle:
    """Whatever the split of a pickle into chunks, the decode equals
    ``pickle.loads`` of the joined bytes."""

    @settings(max_examples=300)
    @given(st.sampled_from(_PICKLES), st.data())
    def test_any_split(self, blob, data):
        from repro.paramserver.server import _unpickled

        cuts = data.draw(st.lists(st.integers(1, len(blob) - 1), max_size=30), label="cuts")
        _assert_same_state(_unpickled(_split(blob, cuts)), pickle.loads(blob))

    @pytest.mark.parametrize("index", range(len(_PICKLES)))
    def test_one_byte_chunks(self, index):
        from repro.paramserver.server import _unpickled

        blob = _PICKLES[index]
        _assert_same_state(_unpickled(_split(blob, range(1, len(blob)))), pickle.loads(blob))

    @pytest.mark.parametrize("index", range(len(_PICKLES)))
    def test_cuts_inside_opcodes_lengths_and_elements(self, index):
        from repro.paramserver.server import _unpickled

        blob = _PICKLES[index]
        cuts = set()
        for opcode, arg, position in pickletools.genops(blob):
            # inside the opcode's argument: a length, an int, a string
            cuts.update(position + step for step in (1, 2, 3, 5))
            if opcode.name in _LENGTH_BYTES:
                start = position + 1 + _LENGTH_BYTES[opcode.name]
                # inside an element (float32, float64 or int16) of the payload
                cuts.update({start + 1, start + 3, start + len(arg) // 2 + 1})
        cuts = [cut for cut in cuts if 0 < cut < len(blob)]
        _assert_same_state(_unpickled(_split(blob, cuts)), pickle.loads(blob))


# ----------------------------------------------------------------------
# the parameter-server serving tier over the block store
# ----------------------------------------------------------------------

PS_KEYS = ("a", "b", "c")
PS_DATANODES = ("dn-0", "dn-1", "dn-2")


def _ps_state(value: int) -> dict:
    # 256 bytes of payload over 64-byte chunks: several chunks per value,
    # and equal values share every chunk (refcounts above one).
    return {"w": np.full(32, float(value))}


class ServingTierMachine(RuleBasedStateMachine):
    """A ``SHARDS``-shard ``ParameterServer`` over a 3-node store vs a plain dict.

    ``safe`` tracks whether replication alone guarantees every byte:
    it drops when ``replicas`` datanodes are down at once (chunks may
    lose every live copy, and writes land under-replicated) and returns
    once every datanode is back and ``repair()`` has run; a put whose
    datanode writes were failing counts the same. While safe,
    every read through every live shard equals the model; while not,
    a read may fail with ``ChunkLostError`` but never returns other
    bytes.
    """

    SHARDS = 3

    def __init__(self):
        super().__init__()
        self.shards = [f"ps-{i}" for i in range(self.SHARDS)]
        # Breakers that never open: this machine is about data, and an
        # open breaker would be a second, wall-clock-timed kind of death.
        def breaker(name):
            return CircuitBreaker(name=name, failure_threshold=10**9)

        self.blocks = BlockStore(
            nodes=3, replicas=2, chunk_size=64, breaker_factory=breaker
        )
        # ~2 values per shard cache: evictions and cold reads happen.
        self.server = ParameterServer(
            store=DataStore("ps-backing", block_store=self.blocks),
            shards=self.SHARDS, cache_bytes=self.SHARDS * 600,
            breaker_factory=breaker,
        )
        self.model: dict[str, list[int]] = {}
        self.dead_shards: set[str] = set()
        self.dead_nodes: set[str] = set()
        self.safe = True

    # -- client operations ----------------------------------------------

    @rule(key=st.sampled_from(PS_KEYS), value=st.integers(0, 3))
    def put(self, key, value):
        if len(self.dead_shards) == self.SHARDS:
            with pytest.raises(ParameterServerError):
                self.server.put(key, _ps_state(value))
        elif len(self.dead_nodes) == len(PS_DATANODES):
            with pytest.raises(StorageError):
                self.server.put(key, _ps_state(value))
        else:
            entry = self.server.put(key, _ps_state(value), performance=float(value))
            self.model.setdefault(key, []).append(value)
            assert entry.version == len(self.model[key])

    @precondition(
        lambda self: len(self.dead_shards) < self.SHARDS
        and len(self.dead_nodes) < len(PS_DATANODES)
    )
    @rule(key=st.sampled_from(PS_KEYS), value=st.integers(0, 3),
          after=st.integers(0, 12))
    def put_while_datanode_writes_fail(self, key, value, after):
        """Every datanode write past the first ``after`` raises."""
        plan = FaultPlan(
            [FaultRule("data.store.put", FaultKind.EXCEPTION, after=after)], seed=0
        )
        previous = chaos.set_plan(plan)
        try:
            self.server.put(key, _ps_state(value), performance=float(value))
        except InjectedFault:
            pass  # nothing may be left behind: the invariants check
        else:
            self.model.setdefault(key, []).append(value)
        finally:
            chaos.set_plan(previous)
        if plan.faults_injected():
            self.safe = False  # a chunk may sit on fewer nodes than the factor

    @precondition(lambda self: self.model and len(self.dead_shards) < self.SHARDS)
    @rule(data=st.data())
    def get_version(self, data):
        key = data.draw(st.sampled_from(sorted(self.model)))
        version = data.draw(st.integers(1, len(self.model[key])))
        try:
            got = self.server.get(key, version)
        except ChunkLostError:
            assert not self.safe
            return
        np.testing.assert_array_equal(got["w"], self.model[key][version - 1])

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        key = data.draw(st.sampled_from(sorted(self.model)))
        self.server.delete(key)
        del self.model[key]

    # -- failures ---------------------------------------------------------

    @rule(index=st.integers(0, 2))
    def kill_shard(self, index):
        name = self.shards[index % self.SHARDS]
        self.server.kill_shard(name)
        self.dead_shards.add(name)

    @rule(index=st.integers(0, 2))
    def revive_shard(self, index):
        name = self.shards[index % self.SHARDS]
        self.server.revive_shard(name)
        self.dead_shards.discard(name)

    @rule(name=st.sampled_from(PS_DATANODES))
    def kill_node(self, name):
        self.blocks.kill_node(name)
        self.dead_nodes.add(name)
        if len(self.dead_nodes) >= self.blocks.replicas:
            self.safe = False

    @rule(name=st.sampled_from(PS_DATANODES))
    def rejoin_node(self, name):
        self.blocks.rejoin_node(name)
        self.dead_nodes.discard(name)

    @rule()
    def repair(self):
        self.server.repair()
        if not self.dead_nodes:
            self.safe = True
        if self.safe:
            ps_audit, store_audit = self.server.audit(), self.blocks.audit()
            assert ps_audit["keys_lost"] == 0
            assert ps_audit["under_replicated"] == []
            assert store_audit["lost"] == []
            assert store_audit["under_replicated"] == []

    # -- invariants -------------------------------------------------------

    @invariant()
    def index_matches_model(self):
        assert self.server.keys() == sorted(self.model)
        for key, values in self.model.items():
            assert self.server.versions(key) == len(values)
            assert self.server.get_entry(key).performance == float(values[-1])
        assert self.server.audit()["divergent"] == []
        # nothing is in flight between steps: every stored chunk is pinned
        assert self.blocks.audit()["unreferenced"] == []
        # a shard order is kept for stored keys only, and is the fresh one
        for key, order in self.server._orders.items():
            assert key in self.model
            assert order == preference_order(key, self.server.shards)

    @invariant()
    def reads_match_model(self):
        live = [s.name for s in self.server.live_shards()]
        assert sorted(live) == sorted(set(self.shards) - self.dead_shards)
        for key, values in self.model.items():
            if not live:
                with pytest.raises(ParameterServerError):
                    self.server.get(key)
                continue
            try:
                answers = reads_through_each_shard(self.server, key)
            except ChunkLostError:
                assert not self.safe
                continue
            assert sorted(answers) == sorted(live)
            for name, got in answers.items():
                np.testing.assert_array_equal(got["w"], values[-1], err_msg=name)


    @invariant()
    def gauges_match_state(self):
        """Every state gauge equals a recomputation from its owner (true by
        construction of a reader; a forgotten push is what this would catch)."""
        gauge = telemetry.get_registry().gauge
        store = self.blocks.audit()
        assert gauge("repro_blockstore_nodes_live").value() == len(store["live_nodes"])
        assert gauge("repro_blockstore_chunks").value() == store["chunks"]
        assert gauge("repro_blockstore_bytes").value(kind="unique") == store["unique_bytes"]
        assert gauge("repro_blockstore_bytes").value(kind="logical") == store["logical_bytes"]
        assert gauge("repro_paramserver_shards_live").value() == (
            self.SHARDS - len(self.dead_shards)
        )
        assert gauge("repro_paramserver_keys").value() == len(self.model)
        # every value is one 32-float64 array
        assert gauge("repro_paramserver_stored_bytes").value() == 256 * sum(
            map(len, self.model.values())
        )
        for shard in self.server.shards:
            labels = {"cache": f"paramserver-{shard.name}"}
            assert gauge("repro_cache_used_bytes").value(**labels) == shard.cache.used_bytes
            assert gauge("repro_cache_hit_ratio").value(**labels) == shard.cache.hit_rate
            if not shard.alive:
                assert shard.cache.used_bytes == 0


ServingTierMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestServingTierStateMachine = ServingTierMachine.TestCase


class OneShardServingTierMachine(ServingTierMachine):
    """The default server's shape, hunted by the same rules."""

    SHARDS = 1


OneShardServingTierMachine.TestCase.settings = ServingTierMachine.TestCase.settings
TestOneShardServingTierStateMachine = OneShardServingTierMachine.TestCase


# ----------------------------------------------------------------------
# quota holdings, read off the objects that hold them
# ----------------------------------------------------------------------

QUOTA_TENANTS = ("acme", "globex")
QUOTA_NODES = ("n0", "n1")
QUOTA_KIND_RESOURCE = {JobKind.TRAIN: "trials", JobKind.INFERENCE: "replicas"}
FAIL_AFTER = st.none() | st.integers(0, 6)


class QuotaMachine(RuleBasedStateMachine):
    """A cluster manager, a data store and a parameter server on one registry.

    The registry holds no usage numbers. After every step — submits,
    stops, node failures and recoveries, parameter puts and deletes, blob
    writes, overwrites and deletes, some of them failing half-way through
    their datanode writes — each tenant's holding of each resource equals
    a recomputation from the owners' records (the blob writers are this
    machine's own model), and never exceeds its quota.
    """

    def __init__(self):
        super().__init__()
        self.tenants = TenantRegistry()
        self.tenants.register("acme", quota=TenantQuota(
            trials=3, replicas=2, ps_bytes=600, store_bytes=1500))
        self.tenants.register("globex", quota=TenantQuota(trials=4, store_bytes=3000))
        self.manager = ClusterManager(tenants=self.tenants)
        for name in QUOTA_NODES:
            self.manager.add_node(
                Node(name, capacity=Resources(cpus=4, gpus=2, memory_gb=32))
            )

        def breaker(name):
            return CircuitBreaker(name=name, failure_threshold=10**9)

        self.store = DataStore(
            "hdfs", tenants=self.tenants, block_store=BlockStore(
                nodes=3, replicas=2, chunk_size=64, breaker_factory=breaker),
        )
        self.server = ParameterServer(
            store=self.store, tenants=self.tenants, breaker_factory=breaker
        )
        #: blob path -> tenant whose write of its current version landed.
        self.writers: dict[str, str] = {}

    def _write(self, tenant, fail_after, write) -> bool:
        """Run ``write`` as ``tenant``; datanode writes past ``fail_after`` fail."""
        plan = None if fail_after is None else FaultPlan(
            [FaultRule("data.store.put", FaultKind.EXCEPTION, after=fail_after)], seed=0
        )
        previous = chaos.set_plan(plan)
        try:
            with tenant_context(tenant):
                write()
        except (QuotaExceededError, InjectedFault):
            return False
        finally:
            chaos.set_plan(previous)
        return True

    # -- the cluster -----------------------------------------------------

    @rule(tenant=st.sampled_from(QUOTA_TENANTS),
          kind=st.sampled_from(sorted(QUOTA_KIND_RESOURCE, key=lambda k: k.value)),
          workers=st.integers(0, 3))
    def submit(self, tenant, kind, workers):
        self.manager.submit_job(kind, "job", num_workers=workers, tenant=tenant)

    @precondition(lambda self: self.manager.jobs)
    @rule(data=st.data())
    def stop(self, data):
        self.manager.stop_job(data.draw(st.sampled_from(sorted(self.manager.jobs))))

    @rule(name=st.sampled_from(QUOTA_NODES))
    def fail_node(self, name):
        self.manager.fail_node(name)

    @rule(name=st.sampled_from(QUOTA_NODES))
    def recover_node(self, name):
        self.manager.recover_node(name)

    # -- the parameter server and the store ------------------------------

    @rule(tenant=st.sampled_from(QUOTA_TENANTS), key=st.sampled_from("ab"),
          value=st.integers(0, 3), fail_after=FAIL_AFTER)
    def ps_put(self, tenant, key, value, fail_after):
        if self._write(tenant, fail_after,
                       lambda: self.server.put(key, _ps_state(value))):
            self.writers[self.server.get_entry(key).path] = tenant

    @precondition(lambda self: self.server.keys())
    @rule(data=st.data())
    def ps_delete(self, data):
        key = data.draw(st.sampled_from(self.server.keys()))
        for version in range(1, self.server.versions(key) + 1):
            del self.writers[self.server.get_entry(key, version).path]
        self.server.delete(key)

    @rule(tenant=st.sampled_from(QUOTA_TENANTS),
          path=st.sampled_from(("blobs/x", "blobs/y")),
          size=st.integers(1, 900), fail_after=FAIL_AFTER)
    def blob_put(self, tenant, path, size, fail_after):
        if self._write(tenant, fail_after,
                       lambda: self.store.put_blob(path, bytes([size % 251]) * size)):
            self.writers[path] = tenant

    @precondition(lambda self: any(p.startswith("blobs/") for p in self.writers))
    @rule(data=st.data())
    def blob_delete(self, data):
        path = data.draw(st.sampled_from(
            sorted(p for p in self.writers if p.startswith("blobs/"))
        ))
        self.store.delete_blobs([path])
        del self.writers[path]

    # -- the invariant ---------------------------------------------------

    def _recomputed(self, tenant: str, resource: str) -> float:
        if resource in ("trials", "replicas"):
            return sum(
                len(job.workers) for job in self.manager.jobs.values()
                if job.tenant == tenant
                and QUOTA_KIND_RESOURCE[job.kind] == resource
                and job.state in (JobState.RUNNING, JobState.DEGRADED)
            )
        if resource == "ps_bytes":
            entries = (
                self.server.get_entry(key, version)
                for key in self.server.keys()
                for version in range(1, self.server.versions(key) + 1)
            )
            return sum(e.nbytes for e in entries if self.writers[e.path] == tenant)
        return sum(
            len(self.store.get_blob(path))
            for path, writer in self.writers.items() if writer == tenant
        )

    @invariant()
    def holdings_are_read_off_the_owners(self):
        assert sorted(self.writers) == self.store.fs.list_paths()
        for tenant in QUOTA_TENANTS:
            quota = self.tenants.resolve(tenant).quota
            for resource in RESOURCES:
                held = self.tenants.usage(tenant, resource)
                assert held == self._recomputed(tenant, resource), (tenant, resource)
                limit = quota.limit(resource)
                assert limit is None or held <= limit, (tenant, resource)
        gauge = telemetry.get_registry().gauge("repro_tenant_usage")
        for tenant, holdings in self.tenants.ledger.snapshot().items():
            for resource, held in holdings.items():
                assert held == self.tenants.usage(tenant, resource)
                assert gauge.value(tenant=tenant, resource=resource) == held


QuotaMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestQuotaStateMachine = QuotaMachine.TestCase


# ----------------------------------------------------------------------
# chunk references, read off the namespaces that hold them
# ----------------------------------------------------------------------

STORE_SPACES = ("one", "two")
STORE_PATHS = ("p", "q")
STORE_CHUNK = 16
# a blob is up to four chunks from a five-letter alphabet: versions and
# the two namespaces share chunks, and one blob may repeat a chunk
STORE_BLOBS = st.lists(st.integers(0, 4), max_size=4).map(
    lambda letters: b"".join(bytes([65 + c]) * STORE_CHUNK for c in letters)
)


def _chunk_digests(data: bytes) -> tuple[str, ...]:
    return tuple(
        chunk_digest(data[i:i + STORE_CHUNK]) for i in range(0, len(data), STORE_CHUNK)
    )


class StoreMachine(RuleBasedStateMachine):
    """Two namespaces over one 3-node, 2-replica block store vs a model.

    Writes, overwrites, deletes and two-phase ``begin_write``/``commit``
    in both namespaces, some with every datanode write past the first
    ``fail_after`` raising, beside datanode kills and rejoins. After every
    step the chunks stored are exactly those the model's committed
    versions and writes in flight reference, the namespaces hold exactly
    the model's versions, every chunk's kept read order is the one its
    live holders give, and — while ``safe`` — every referenced chunk
    has a live copy and every version reads back. ``safe`` drops when
    ``replicas`` datanodes are down at once or a write met faults (a
    chunk may land on fewer nodes than the factor), and returns once
    every datanode is up and ``repair()`` has run.
    """

    def __init__(self):
        super().__init__()

        def breaker(name):
            return CircuitBreaker(name=name, failure_threshold=10**9)

        self.blocks = BlockStore(
            nodes=3, replicas=2, chunk_size=STORE_CHUNK, breaker_factory=breaker
        )
        self.spaces = {
            name: FileNamespace(self.blocks, name=name) for name in STORE_SPACES
        }
        #: (namespace, path) -> committed blobs, oldest first.
        self.model: dict[tuple[str, str], list[bytes]] = {}
        #: (namespace, pending write) for every write in flight.
        self.in_flight: list[tuple[str, PendingWrite]] = []
        self.dead: set[str] = set()
        self.safe = True

    def _faulty(self, fail_after, call):
        """``call()`` with datanode writes past ``fail_after`` raising; its
        result, or ``None`` when it failed."""
        plan = None if fail_after is None else FaultPlan(
            [FaultRule("data.store.put", FaultKind.EXCEPTION, after=fail_after)], seed=0
        )
        previous = chaos.set_plan(plan)
        try:
            return call()
        except (InjectedFault, StorageError):
            return None
        finally:
            chaos.set_plan(previous)
            if plan is not None and plan.faults_injected():
                self.safe = False

    # -- writes -------------------------------------------------------------

    @rule(space=st.sampled_from(STORE_SPACES), path=st.sampled_from(STORE_PATHS),
          data=STORE_BLOBS, fail_after=FAIL_AFTER)
    def write(self, space, path, data, fail_after):
        if self._faulty(fail_after, lambda: self.spaces[space].write(path, data)):
            self.model.setdefault((space, path), []).append(data)

    @rule(space=st.sampled_from(STORE_SPACES), path=st.sampled_from(STORE_PATHS),
          data=STORE_BLOBS, fail_after=FAIL_AFTER)
    def begin_write(self, space, path, data, fail_after):
        pending = self._faulty(
            fail_after, lambda: self.spaces[space].begin_write(path, data)
        )
        if pending is not None:
            self.in_flight.append((space, pending))

    @precondition(lambda self: self.in_flight)
    @rule(data=st.data(), fail_after=FAIL_AFTER)
    def commit(self, data, fail_after):
        index = data.draw(st.integers(0, len(self.in_flight) - 1))
        space, pending = self.in_flight[index]
        # a failed commit leaves the write in flight, to be retried
        if self._faulty(fail_after, lambda: self.spaces[space].commit(pending)):
            del self.in_flight[index]  # by position: equal writes are distinct
            self.model.setdefault((space, pending.path), []).append(pending.data)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def delete(self, data):
        space, path = data.draw(st.sampled_from(sorted(self.model)))
        assert self.spaces[space].delete(path) == len(self.model.pop((space, path)))

    # -- failures -----------------------------------------------------------

    @rule(names=st.sets(st.sampled_from(PS_DATANODES), min_size=1))
    def kill_nodes(self, names):
        """One datanode, or several at once (a rack: every copy may die)."""
        for name in sorted(names):
            self.blocks.kill_node(name)
        self.dead |= names
        if len(self.dead) >= self.blocks.replicas:
            self.safe = False

    @rule(names=st.sets(st.sampled_from(PS_DATANODES), min_size=1))
    def rejoin_nodes(self, names):
        for name in sorted(names):
            self.blocks.rejoin_node(name)
        self.dead -= names

    @rule()
    def repair(self):
        self.blocks.repair()
        if not self.dead:
            self.safe = True

    # -- invariants ---------------------------------------------------------

    def _referenced(self) -> list[tuple[str, ...]]:
        return [_chunk_digests(blob) for blobs in self.model.values() for blob in blobs] + [
            pending.digests for _, pending in self.in_flight
        ]

    @invariant()
    def namespaces_hold_the_model(self):
        for name, fs in self.spaces.items():
            paths = sorted(path for space, path in self.model if space == name)
            assert fs.list_paths() == paths
            for path in paths:
                assert [m.digests for m in fs.versions(path)] == [
                    _chunk_digests(blob) for blob in self.model[name, path]
                ]

    @invariant()
    def stored_chunks_are_the_referenced_ones(self):
        referenced = self._referenced()
        audit = self.blocks.audit()
        assert set(self.blocks._directory) == {d for ds in referenced for d in ds}
        assert audit["unreferenced"] == []
        assert audit["logical_bytes"] == STORE_CHUNK * sum(map(len, referenced))
        gauge = telemetry.get_registry().gauge("repro_blockstore_bytes")
        assert gauge.value(kind="logical") == audit["logical_bytes"]

    @invariant()
    def read_orders_are_kept_per_holder_set(self):
        """Each chunk's kept read order is its live holders' rendezvous
        order, computed fresh; reading it here keeps one for every chunk,
        so a holder change that forgets to drop it shows at the next step."""
        blocks = self.blocks
        assert set(blocks._read_orders) <= set(blocks._directory)
        for digest, holders in blocks._directory.items():
            live = [node for node in map(blocks.node, holders) if node.alive]
            if live:
                assert blocks._read_order(digest) == preference_order(digest, live)

    @invariant()
    def referenced_chunks_are_live_while_safe(self):
        if not self.safe:
            return
        for digests in self._referenced():
            assert all(self.blocks.has_chunk(d) for d in digests)
        for (space, path), blobs in self.model.items():
            for version, blob in enumerate(blobs, start=1):
                assert self.spaces[space].read(path, version) == blob


StoreMachine.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestStoreStateMachine = StoreMachine.TestCase
