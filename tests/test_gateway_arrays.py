"""A query image crosses the gateway as the caller's array, and the answer
comes back as plain values built in one walk.

The list path (an image as nested lists, an answer through
``json.loads(json.dumps(...))``) is the oracle: an array body must
answer byte for byte as its ``tolist()`` body does, on the sync path,
the async path and through the batched SQL UDF, and the walk must return
exactly what the JSON round trip returned.
"""

from __future__ import annotations

import asyncio
import importlib.util
import json
import math
import struct
from enum import IntEnum
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.gateway import Gateway, Response, _parse_image, make_query_executor
from repro.core.serve.frontend import AsyncServeFrontend, FrontendConfig
from repro.core.system import Rafiki
from repro.data import make_image_classification
from repro.exceptions import GatewayError, SQLExecutionError
from repro.sqlext import make_batched_inference_udf

from serve_helpers import deploy_untrained
from test_properties import _mutable_containers

SHAPE = (3, 8, 8)

# the images are adversarial on purpose: casts overflow, the nets see NaN
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(scope="module")
def served():
    """(system, gateway, job id, dataset): two untrained replicas."""
    dataset = make_image_classification(
        name="arrays", num_classes=3, image_shape=SHAPE, train_per_class=2,
        val_per_class=1, test_per_class=4, seed=3,
    )
    system = Rafiki(seed=5)
    infer_id = deploy_untrained(system, dataset, replicas=2)
    return system, Gateway(system), infer_id, dataset


def _frontend(system, infer_id) -> AsyncServeFrontend:
    return AsyncServeFrontend(
        FrontendConfig(latency=lambda b: 0.001, tau=0.5, batch_sizes=(1,)),
        make_query_executor(system, infer_id),
    )


def _query_async(gateway, system, infer_id, body) -> Response:
    frontend = _frontend(system, infer_id)
    gateway.attach_frontend(infer_id, frontend)

    async def scenario():
        async with frontend:
            return await gateway.handle_async("POST", f"/query/{infer_id}", body)

    try:
        return asyncio.run(scenario())
    finally:
        gateway.detach_frontend(infer_id)


class _Listing:
    """A gateway in front of which every image is sent as ``tolist()``:
    what the batched UDF posted before arrays crossed the gateway."""

    def __init__(self, gateway: Gateway):
        self.gateway = gateway

    def handle(self, method, path, body):
        return self.gateway.handle(method, path, {**body, "img": body["img"].tolist()})


def _udf_answer(gateway, infer_id, image: np.ndarray):
    udf = make_batched_inference_udf(gateway, infer_id, {"p": image})
    try:
        return udf(["p"])
    except SQLExecutionError as exc:
        return f"SQLExecutionError: {exc}"


# ----------------------------------------------------------------------
# array bodies answer as their tolist() bodies
# ----------------------------------------------------------------------

_NUMERIC = [
    np.bool_, np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
    np.uint32, np.uint64, np.float16, np.float32, np.float64, np.longdouble,
]
_OTHER = [np.complex64, np.complex128, np.dtype("U4"), np.dtype("S2"), object]


def _planted(dtype: np.dtype) -> list:
    """Values a direct cast to float32 gets wrong, or that sit on an edge."""
    if dtype.kind in "iu" and dtype.itemsize == 8:
        top = 63 if dtype.kind == "u" else 62
        # rounds to a float32 tie once it is a double: a direct cast rounds up
        return [2**e + 2 ** (e - 24) + 1 for e in range(54, top + 1)] + [
            int(np.iinfo(dtype).max), int(np.iinfo(dtype).min), 2**53 + 1,
        ]
    if dtype == np.longdouble:
        one = np.longdouble(1)
        return [one + one / 2**24 + one / 2**60, -(one + one / 2**24 + one / 2**61),
                np.longdouble(1e300) * np.longdouble(1e300), np.longdouble("nan")]
    if dtype.kind == "f":  # signalling and payload NaNs, infinities, -0
        bits = {2: [0x7C01, 0xFE01, 0x7E00], 4: [0x7F800001, 0xFFA00000, 0x7FC00001],
                8: [0x7FF0000000000001, 0xFFF8000000000003]}[dtype.itemsize]
        uint = np.dtype(f"u{dtype.itemsize}")
        return list(np.array(bits, uint).view(dtype)) + [np.inf, -np.inf, -0.0, 1e39]
    return []


@st.composite
def _images(draw):
    """An image-like array of any dtype, shape and bit pattern."""
    dtype = np.dtype(draw(st.sampled_from(_NUMERIC + _OTHER), label="dtype"))
    shape = draw(st.sampled_from(
        [SHAPE, (1, *SHAPE), (2, *SHAPE), (), (8, 8), (3, 8, 9), (0, *SHAPE)]
    ), label="shape")
    size = int(np.prod(shape))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    if dtype.kind in "biuf":
        flat = np.frombuffer(rng.bytes(size * dtype.itemsize), dtype=dtype).copy()
        if dtype.kind == "b":
            flat = flat.view(np.uint8).astype(bool)
        elif dtype.kind == "f" and draw(st.booleans(), label="tame"):
            flat = rng.standard_normal(size).astype(dtype)  # a plausible image
        for value in _planted(dtype):
            if size and draw(st.booleans()):
                flat[rng.integers(size)] = value
    elif dtype.kind == "c":
        flat = (rng.standard_normal(size) + 1j * rng.standard_normal(size)).astype(dtype)
    elif dtype.kind in "US":
        flat = np.array([draw(st.sampled_from(["1.5", "x", "-2", "nan", ""]))
                         for _ in range(size)], dtype=dtype)
    else:
        leaves = st.one_of(st.floats(), st.integers(-(2**70), 2**70), st.none(),
                           st.just(10**400), st.just({1}), st.just("2"))
        flat = np.empty(size, dtype=object)
        flat[:] = [draw(leaves) for _ in range(min(size, 3))] + [0.5] * max(size - 3, 0)
    return flat.reshape(shape)


class TestArrayBodiesAnswerAsTheirLists:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_images())
    def test_sync_async_and_udf(self, served, image):
        system, gateway, infer_id, dataset = served
        listed = image.tolist()
        path = f"/query/{infer_id}"
        sync = gateway.handle("POST", path, {"img": image})
        assert repr(sync) == repr(gateway.handle("POST", path, {"img": listed}))
        assert sync.status in (200, 400)
        assert repr(_query_async(gateway, system, infer_id, {"img": image})) == repr(
            _query_async(gateway, system, infer_id, {"img": listed})
        )
        assert repr(_udf_answer(gateway, infer_id, image)) == repr(
            _udf_answer(_Listing(gateway), infer_id, image)
        )

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_images(), st.booleans())
    def test_decoded_bits(self, image, batch):
        """The engine-dtype array is the list path's, bit for bit, or the
        same 400."""

        def decoded(raw):
            try:
                array = _parse_image(raw, image.shape[batch:], batch)
            except GatewayError as exc:
                return str(exc)
            return array.dtype, array.shape, array.tobytes()

        assert decoded(image) == decoded(image.tolist())

    @pytest.mark.parametrize("dtype", [np.float32, np.float16, np.int64, np.uint8])
    def test_a_wrong_shape_is_the_same_400(self, served, dtype):
        system, gateway, infer_id, dataset = served
        image = np.zeros((3, 8, 9), dtype=dtype)
        for body in ({"img": image}, {"img": image.tolist()}):
            response = gateway.handle("POST", f"/query/{infer_id}", body)
            assert response.status == 400
            assert response.body["error"] == (
                "image shape (3, 8, 9) does not match expected (3, 8, 8)"
            )

    def test_an_array_elsewhere_in_the_body_is_still_refused(self, served):
        system, gateway, infer_id, dataset = served
        image = dataset.test_x[0]
        for body in ({"img": image, "tenant": np.array([1])},
                     {"img": image.tolist(), "explain": image}):
            response = gateway.handle("POST", f"/query/{infer_id}", body)
            assert response.status == 400
            assert "not JSON serializable" in response.body["error"]

    def test_a_float32_image_is_not_copied_on_the_sync_path(self, served, monkeypatch):
        system, gateway, infer_id, dataset = served
        image = dataset.test_x[0].astype(np.float32)
        seen, query = [], system.query
        monkeypatch.setattr(system, "query", lambda job, x: seen.append(x) or query(job, x))
        assert gateway.handle("POST", f"/query/{infer_id}", {"img": image}).ok
        assert len(seen) == 1 and seen[0] is image


class TestTheQueuedImageIsTheSystems:
    def test_mutating_the_array_after_submit_changes_nothing(self, served):
        system, gateway, infer_id, dataset = served
        image = dataset.test_x[0].astype(np.float32)
        original = image.copy()
        expected = gateway.handle("POST", f"/query/{infer_id}", {"img": original})
        executed = []
        execute = make_query_executor(system, infer_id)

        def spying(payloads, batch_size, *models):
            executed.extend(payload.copy() for payload in payloads)
            return execute(payloads, batch_size, *models)

        frontend = AsyncServeFrontend(
            FrontendConfig(latency=lambda b: 0.001, tau=0.5, batch_sizes=(1,)), spying
        )
        gateway.attach_frontend(infer_id, frontend)

        async def scenario():
            async with frontend:
                task = asyncio.ensure_future(
                    gateway.handle_async("POST", f"/query/{infer_id}", {"img": image})
                )
                await asyncio.sleep(0)  # admitted and queued, not yet run
                assert frontend.core.admitted == 1 and frontend.core.served == 0
                image[...] = -100.0
                return await task

        try:
            answer = asyncio.run(scenario())
        finally:
            gateway.detach_frontend(infer_id)
        assert len(executed) == 1
        assert executed[0].tobytes() == original.tobytes()
        assert answer.status == 200 and repr(answer) == repr(expected)


# ----------------------------------------------------------------------
# out-of-range numbers are the client's error
# ----------------------------------------------------------------------


class TestOutOfRangeNumbersAre400:
    def test_an_image_leaf_past_float_range(self, served):
        system, gateway, infer_id, dataset = served
        pixels = dataset.test_x[0].tolist()
        pixels[0][0][0] = 10**400
        body = {"img": pixels}
        expected = "'img' is not a numeric image: int too large to convert to float"
        sync = gateway.handle("POST", f"/query/{infer_id}", body)
        assert (sync.status, sync.body["error"]) == (400, expected)
        answer = _query_async(gateway, system, infer_id, body)
        assert (answer.status, answer.body["error"]) == (400, expected)

    @pytest.mark.parametrize("entry", ["handle", "handle_async"])
    def test_infinite_counts(self, served, entry):
        system, gateway, infer_id, dataset = served

        def post(path, body):
            if entry == "handle":
                return gateway.handle("POST", path, body)
            return asyncio.run(gateway.handle_async("POST", path, body))

        train = post("/train", {
            "name": "t", "task": "ImageClassification", "dataset": dataset.name,
            "num_models": math.inf,
        })
        assert train.status == 400
        assert train.body["error"] == (
            "field 'num_models' is invalid: cannot convert float infinity to integer"
        )
        model = {"model_name": "m", "param_key": "untrained"}
        inference = post("/inference", {"models": [model], "priority": -math.inf})
        assert inference.status == 400
        assert inference.body["error"] == (
            "field 'priority' is invalid: cannot convert float infinity to integer"
        )


# ----------------------------------------------------------------------
# the one walk equals the JSON round trip
# ----------------------------------------------------------------------


def _oracle_default(value):
    """The ``default`` the gateway's answers were JSON-encoded with."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON-serialisable")


def _round_trip(value) -> Response:
    try:
        return Response(200, json.loads(json.dumps(value, default=_oracle_default)))
    except (TypeError, ValueError, RecursionError) as exc:
        return Response(500, {"error": f"handler result not serialisable: {exc}"})


def _exact(value):
    """``value`` with every type, float bit pattern and key order spelled out."""
    if isinstance(value, float):
        return ("float", struct.pack(">d", value).hex())
    if isinstance(value, dict):
        return ("dict", [(_exact(k), _exact(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("list", [_exact(item) for item in value])
    return (type(value).__name__, repr(value))


def _containers(value, found=None) -> set[int]:
    found = set() if found is None else found
    if isinstance(value, (list, tuple, dict)) and id(value) not in found:
        found.add(id(value))
        for item in value.values() if isinstance(value, dict) else value:
            _containers(item, found)
    return found


class _Str(str):
    def __repr__(self):
        return "overridden"


class _Float(float):
    def __repr__(self):
        return "overridden"


class _Int(int):
    pass


class _Level(IntEnum):
    HIGH = 3


_COLLIDING = [1, "1", True, "true", None, "null", 1.5, "1.5", math.nan, "NaN",
              math.inf, "Infinity", -math.inf, "-Infinity", np.float64(1.5), _Str("1")]
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
    st.sampled_from([700, 5000]).map(lambda digits: 10**digits),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16), st.floats().map(np.longdouble),
    st.integers(-(2**63), 2**63 - 1).map(np.int64), st.integers(0, 2**64 - 1).map(np.uint64),
    st.booleans().map(np.bool_),
    st.lists(st.floats(), max_size=3).map(np.array),
    st.lists(st.integers(-5, 5), max_size=3).map(lambda xs: np.array(xs, dtype=np.int8)),
    st.lists(st.sampled_from([np.float32(0.5), 2, None, "s", {1}]), max_size=2).map(
        lambda xs: np.array(xs + [None], dtype=object)
    ),
    st.sampled_from([_Str("s"), _Float(2.5), _Float("nan"), _Level.HIGH, -0.0]),
    st.frozensets(st.integers(), max_size=2).map(set), st.binary(max_size=3),
    st.just(1j),
)
_KEYS = st.one_of(
    st.text(max_size=3), st.integers(), st.floats(), st.booleans(), st.none(),
    st.floats().map(np.float64), st.sampled_from(_COLLIDING),
    st.integers(-5, 5).map(np.int64), st.booleans().map(np.bool_),
    st.binary(max_size=2), st.tuples(st.integers()),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_KEYS, children, max_size=4),
    ),
    max_leaves=14,
)


class TestTheWalkIsTheRoundTrip:
    @settings(max_examples=500, deadline=None)
    @given(_VALUES, st.data())
    def test_walk_equals_json_round_trip(self, value, data):
        containers = _mutable_containers(value)
        if containers and data.draw(st.booleans(), label="link"):
            # a shared reference: a cycle when the target reaches the holder
            holder = data.draw(st.sampled_from(containers), label="holder")
            target = data.draw(st.sampled_from(containers), label="target")
            if isinstance(holder, list):
                holder.append(target)
            else:
                holder["link"] = target
        walked = Gateway._serialise(value)
        expected = _round_trip(value)
        assert walked.status == expected.status
        assert _exact(walked.body) == _exact(expected.body)
        if walked.status == 200:  # every container fresh
            assert not _containers(walked.body) & _containers(value)

    @pytest.mark.parametrize("value", [
        {1: "a", "1": "b", True: "c", "true": "d"},
        {math.nan: 1, "NaN": 2, np.float64(-math.inf): 3},
        {"votes": [[1, 2], (3, 4)], "label": (np.int64(1), np.uint64(2**64 - 1))},
        {"rows": [[1, 10**5000]]},
        {"big": _Level.HIGH, "huge": _Int(10**5000)},
        {np.int64(1): 0},
        {"a": np.array([{1}], dtype=object)},
        [-math.nan, _Float("-nan"), np.float32("-nan"),
         struct.unpack(">d", bytes.fromhex("7ff0000000000001"))[0]],
    ])
    def test_pinned(self, value):
        walked, expected = Gateway._serialise(value), _round_trip(value)
        assert (walked.status, _exact(walked.body)) == (expected.status, _exact(expected.body))

    def test_cycles_are_500(self):
        looped: list = [1]
        looped.append(looped)
        holder = np.empty((), dtype=object)
        holder[()] = holder
        for value in (looped, {"a": holder}):
            walked, expected = Gateway._serialise(value), _round_trip(value)
            assert walked == expected
            assert walked.body["error"].endswith("Circular reference detected")

    def test_nesting_past_the_recursion_limit_is_500(self):
        deep: list = []
        for _ in range(100_000):
            deep = [deep]
        assert _round_trip(deep).status == 500
        assert Gateway._serialise(deep).status == 500


# ----------------------------------------------------------------------
# no JSON round trip comes back unnoticed
# ----------------------------------------------------------------------


def test_src_has_no_json_round_trip():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("tally", root / "tools" / "tally.py")
    tally = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tally)
    sites = {
        str(path.relative_to(root)): count
        for path in sorted((root / "src").rglob("*.py"))
        if (count := tally.json_round_trips(path))
    }
    assert sites == {}
