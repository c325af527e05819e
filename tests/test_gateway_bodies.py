"""Each gateway route declares its body once, as a table the router reads.

The pinned cases are bodies that answered 200 (or hung, or registered a
tenant) before the tables; the fuzzer posts generated JSON bodies to all
eleven routes and holds every answer to 200 or 4xx, with a 4xx changing
nothing.
"""

from __future__ import annotations

import asyncio
import inspect
import importlib.util
import math
import re
import signal
import string
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from repro.api import sdk
from repro.api.gateway import Gateway, make_query_executor
from repro.cluster.manager import JobKind
from repro.core.serve.frontend import AsyncServeFrontend, FrontendConfig
from repro.core.system import Rafiki
from repro.core.tune import HyperConf
from repro.data import make_image_classification
from repro.exceptions import ConfigurationError, PlacementError

sys.path.insert(0, str(Path(__file__).resolve().parent))
from serve_helpers import deploy_untrained  # noqa: E402

#: a dataset whose name no letters-only draw can hit, so no training starts.
DATASET = make_image_classification(
    name="food-1", num_classes=3, image_shape=(3, 8, 8), train_per_class=4,
    val_per_class=2, test_per_class=2, difficulty=0.3, seed=1,
)
TRAIN = {"name": "t", "task": "ImageClassification", "dataset": "food-1"}


def _deployed():
    """A system with one untrained job deployed, a tenant ``acme`` and a
    suspended tenant ``gone``; ``(system, gateway, job_id)``."""
    system = Rafiki(seed=5)
    system.tenants.register("acme")
    system.tenants.register("gone")
    system.tenants.suspend("gone")
    job = deploy_untrained(system, DATASET)
    return system, Gateway(system), job


def _state(system) -> str:
    """What a refused request must leave as it was (the ledger's nonzero
    holdings: a training job that places its containers and then fails
    stops them, but the placed job's pair stays, at zero)."""
    return repr((
        {k: (v.status, v.model_names) for k, v in system.train_jobs.items()},
        {k: (v.status, v.queries_served, v.specs) for k, v in system.inference_jobs.items()},
        {k: (v.state, v.tenant, [c.container_id for c in v.containers])
         for k, v in system.cluster.jobs.items()},
        system.store.list_datasets(),
        [(t.name, t.active) for t in system.tenants.tenants()],
        [(tenant, resource, used)
         for tenant, held in system.tenants.ledger.snapshot().items()
         for resource, used in held.items() if used],
        system.param_server.keys(),
        system.param_server.audit(),
        system.store.audit(),
        system.param_server.block_store.audit(),
    ))


# ----------------------------------------------------------------------
# what the tables refuse
# ----------------------------------------------------------------------


class TestNumbersAreFinite:
    @pytest.mark.parametrize("performance", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_performance_is_not_deployed(self, performance):
        system, gateway, job = _deployed()
        model = {"model_name": "resnet-mini", "param_key": "untrained",
                 "performance": performance, "dataset": "food-1"}
        before = _state(system)
        response = gateway.handle("POST", "/inference", {"models": [model]})
        assert response.status == 400
        assert "'performance'" in response.body["error"]
        assert _state(system) == before


class TestHyper:
    """``hyper`` is typed from :class:`HyperConf`'s own fields; a study
    that could never end, or a non-object, is refused before any job."""

    @pytest.mark.parametrize("hyper", [
        {"max_trials": math.nan}, {"max_trials": 1.5}, {"max_trials": True},
        {"max_epochs_per_trial": math.inf}, {"early_stop_patience": -math.inf},
        {"delta": math.nan}, {"alpha_decay": math.inf}, {"max_total_epochs": 2.5},
    ], ids=repr)
    def test_a_study_that_could_not_end_is_400(self, hyper):
        # The dataset does not exist: a hyper the gateway let through
        # would answer 404 from the facade instead.
        system, gateway, job = _deployed()
        response = gateway.handle("POST", "/train", {**TRAIN, "dataset": "d", "hyper": hyper})
        assert response.status == 400
        assert "'hyper'" in response.body["error"] or repr(next(iter(hyper))) in (
            response.body["error"])

    @pytest.mark.parametrize("hyper", [0, False, [], ""], ids=repr)
    def test_an_empty_non_object_is_not_the_default_study(self, hyper):
        system, gateway, job = _deployed()
        response = gateway.handle("POST", "/train", {**TRAIN, "dataset": "d", "hyper": hyper})
        assert response.status == 400
        assert "must be an object" in response.body["error"]

    @pytest.mark.parametrize("hyper", [{}, None], ids=repr)
    def test_empty_and_null_are_no_hyper(self, hyper, monkeypatch):
        system, gateway, job = _deployed()
        received = {}
        monkeypatch.setattr(system, "create_train_job",
                            lambda **kwargs: received.update(kwargs) or "train-1")
        assert gateway.handle("POST", "/train", {**TRAIN, "hyper": hyper}).status == 200
        assert received["hyper"] is None

    @pytest.mark.parametrize("kwargs", [
        {"max_trials": math.nan}, {"max_trials": 1.5}, {"max_trials": True},
        {"max_trials": 2.0}, {"max_epochs_per_trial": math.inf},
        {"early_stop_patience": 0}, {"delta": math.nan}, {"delta": math.inf},
        {"early_stop_min_delta": math.nan}, {"max_total_epochs": 2.5},
        {"max_total_epochs": True}, {"alpha0": "1"},
    ], ids=repr)
    def test_hyperconf_refuses_it_for_sdk_users_too(self, kwargs):
        with pytest.raises(ConfigurationError):
            HyperConf(**kwargs)

    def test_hyperconf_takes_numpy_counts(self):
        conf = HyperConf(max_trials=np.int64(3), max_total_epochs=np.int32(7), delta=0)
        assert conf.should_continue(2) and not conf.should_continue(3)


class TestShapes:
    @pytest.mark.parametrize("shape", ["abc", {"3": 1}, [3.5], [None], True], ids=repr)
    @pytest.mark.parametrize("field", ["input_shape", "output_shape"])
    def test_a_shape_is_a_list_of_integers(self, field, shape):
        system, gateway, job = _deployed()
        response = gateway.handle("POST", "/train", {**TRAIN, field: shape})
        assert response.status == 400
        assert f"field {field!r} is invalid" in response.body["error"]

    def test_a_list_of_whole_numbers_is_a_shape(self, monkeypatch):
        system, gateway, job = _deployed()
        received = {}
        monkeypatch.setattr(system, "create_train_job",
                            lambda **kwargs: received.update(kwargs) or "train-1")
        body = {**TRAIN, "input_shape": [3, 8.0, 8], "output_shape": (3,)}
        assert gateway.handle("POST", "/train", body).status == 200
        assert received["input_shape"] == (3, 8, 8) and received["output_shape"] == (3,)


class TestNull:
    def test_null_is_absent_where_the_default_is_none(self):
        system, gateway, job = _deployed()
        model = {"model_name": "resnet-mini", "param_key": "untrained", "dataset": "food-1",
                 "task": "ImageClassification"}
        response = gateway.handle("POST", "/inference", {"models": [model], "dataset": None})
        assert response.status == 200

    @pytest.mark.parametrize("path, body, named", [
        ("/train", {**TRAIN, "num_models": None}, "'num_models'"),
        ("/train", {**TRAIN, "collaborative": None}, "'collaborative'"),
        ("/datasets", {"directory": None}, "'directory'"),
        ("/query/infer-1", {"img": None}, "'img'"),
    ])
    def test_null_is_refused_everywhere_else(self, path, body, named):
        system, gateway, job = _deployed()
        response = gateway.handle("POST", path, body)
        assert response.status == 400
        assert named in response.body["error"]


def _within_a_second(call):
    """``call()``, or ``TimeoutError`` once it has run for a second (which
    stops a loop building one object per requested worker in time)."""
    def expire(signum, frame):
        raise TimeoutError("not answered within 1 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return call()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestWorkerCountCostsNoMemory:
    """``num_workers`` from a body used to build one container per worker
    before any capacity check: ``10**9`` would run the box out of memory
    to answer what ``1 000`` answers at once."""

    @pytest.mark.parametrize("tenant", ["default", "capped"])
    def test_a_billion_workers_get_the_answer_a_thousand_get(self, tenant):
        from repro.tenancy import TenantQuota

        system, gateway, job = _deployed()
        system.tenants.register("capped", quota=TenantQuota(trials=4))
        answers = []
        for workers in (1_000, 10**9):
            before = _state(system)
            body = {**TRAIN, "num_workers": workers}
            response = _within_a_second(
                lambda: gateway.handle("POST", "/train", body, tenant=tenant))
            answers.append(response.status)
            assert _state(system) == before
        assert answers[0] == answers[1] == (400 if tenant == "default" else 429)

    def test_the_manager_refuses_before_building_containers(self):
        system = Rafiki(seed=5)
        with pytest.raises(PlacementError):
            _within_a_second(lambda: system.cluster.submit_job(
                JobKind.TRAIN, "huge", num_workers=10**400, queue=False))
        assert system.cluster.jobs == {}


class TestRefusedRequestsRegisterNoTenant:
    @pytest.mark.parametrize("method, path, body, status", [
        ("POST", "/train", {"name": "x", "tenant": "newco"}, 400),
        ("POST", "/nope", {"tenant": "ghost"}, 404),
    ])
    def test_sync_and_async(self, method, path, body, status):
        system, gateway, job = _deployed()
        before = [t.name for t in system.tenants.tenants()]
        assert gateway.handle(method, path, body).status == status
        assert asyncio.run(gateway.handle_async(method, path, body)).status == status
        assert [t.name for t in system.tenants.tenants()] == before

    def test_a_served_request_still_registers_its_tenant(self):
        system, gateway, job = _deployed()
        assert gateway.handle("GET", "/datasets", {"tenant": "newco"}).status == 200
        assert "newco" in [t.name for t in system.tenants.tenants()]

    def test_a_suspended_tenant_is_refused_before_the_body_is_read(self):
        system, gateway, job = _deployed()
        assert gateway.handle("POST", "/train", {"tenant": "gone"}).status == 403


class TestRefusedJobShowsNoLedgerPair:
    def test_a_job_refused_for_capacity_adds_no_pair(self):
        system, gateway, job = _deployed()
        before = system.tenants.ledger.snapshot()
        body = {**TRAIN, "num_workers": 1_000, "tenant": "acme"}
        assert gateway.handle("POST", "/train", body).status == 400
        assert system.tenants.ledger.snapshot() == before
        assert "acme" not in before

    def test_a_placed_job_shows_its_pair(self):
        system = Rafiki(seed=5)
        system.cluster.submit_job(JobKind.TRAIN, "t", num_workers=1, tenant="acme")
        assert system.tenants.ledger.snapshot()["acme"] == {"trials": 1.0}


class TestRefusedDeployLeavesNoJob:
    def test_a_missing_parameter_key_leaves_no_cluster_job(self):
        system, gateway, job = _deployed()
        before = _state(system)
        model = {"model_name": "resnet-mini", "param_key": "nokey", "dataset": "food-1",
                 "task": "ImageClassification"}
        response = gateway.handle("POST", "/inference", {"models": [model]})
        assert response.status == 404
        assert _state(system) == before

    def test_a_refused_deploy_takes_no_id(self):
        system, gateway, job = _deployed()
        model = {"model_name": "resnet-mini", "param_key": "nokey", "dataset": "food-1",
                 "task": "ImageClassification"}
        assert gateway.handle("POST", "/inference", {"models": [model]}).status == 404
        spec = system.get_inference_job(job).specs[0]
        assert system.create_inference_job([spec]) == "infer-2"
        assert sorted(system.cluster.jobs) == ["job-1", "job-2"]

    def test_a_refused_deploy_shows_no_ledger_pair(self):
        system, gateway, job = _deployed()
        before = system.tenants.ledger.snapshot()
        model = {"model_name": "resnet-mini", "param_key": "nokey", "dataset": "food-1",
                 "task": "ImageClassification"}
        body = {"models": [model], "tenant": "acme"}
        assert gateway.handle("POST", "/inference", body).status == 404
        assert system.tenants.ledger.snapshot() == before
        assert "acme" not in before


# ----------------------------------------------------------------------
# the SDK and the tables
# ----------------------------------------------------------------------


def test_the_sdk_takes_every_field_the_web_api_takes():
    """Figure 2's names stand for two fields: ``data`` for ``dataset``
    and ``source`` for ``directory``."""
    figure2 = {"data": "dataset", "source": "directory"}
    for route, sdk_call in (("/train", sdk.Train), ("/inference", sdk.Inference),
                            ("/datasets", sdk.import_images)):
        handler = next(h for method, _, h, template in Gateway._routes
                       if method == "POST" and template == route)
        fields = {name for name, _, _ in Gateway._bodies[handler]}
        params = {figure2.get(p, p) for p in inspect.signature(sdk_call).parameters}
        assert fields <= params, (route, fields - params)


def test_the_sdk_query_is_refused_by_the_gateway(monkeypatch):
    system, gateway, job = _deployed()
    monkeypatch.setattr(sdk, "_gateway", None)  # restored after the test
    sdk.connect(system)
    expected = re.escape("HTTP 400: POST /query/{job_id} requires 'img'")
    with pytest.raises(sdk.GatewayError, match=expected):
        sdk.query(job, {})


def test_no_handler_reads_the_raw_body():
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("tally", root / "tools" / "tally.py")
    tally = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tally)
    assert tally.raw_body_reads() == []


# ----------------------------------------------------------------------
# the fuzzer
# ----------------------------------------------------------------------

LETTERS = string.ascii_letters
names = st.text(LETTERS, max_size=6)


def _nested(depth: int) -> list:
    value: list = []
    for _ in range(depth):
        value = [value]
    return value


leaves = (st.none() | st.booleans() | st.integers() | st.floats() | names
          | st.integers(min_value=2**1024, max_value=2**1100).map(lambda n: n * (-1) ** n))
trees = st.recursive(
    leaves, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(names, inner, max_size=3),
    max_leaves=8,
)
#: any JSON value, now and then nested past the interpreter's recursion limit.
json_values = st.one_of(trees, trees, trees, st.integers(1, 3000).map(_nested))

@st.composite
def fields(draw, plausible: dict) -> dict:
    """An object over ``plausible``'s fields: each mostly one of its
    plausible values, else any JSON value, else missing."""
    out = {}
    for name, values in plausible.items():
        kind = draw(st.sampled_from(["plausible"] * 8 + ["json", "missing"]))
        if kind != "missing":
            out[name] = draw(values if kind == "plausible" else json_values)
    return out


#: values a field's converter may take, beside any JSON value.
MODEL = {"model_name": st.sampled_from(["resnet-mini", "vgg-mini"]) | names,
         "param_key": st.just("untrained") | names,
         "task": st.just("ImageClassification") | names,
         "dataset": st.just("food-1") | names,
         "performance": st.floats(0, 1) | st.integers() | st.floats()}
PLAUSIBLE = {
    "directory": names, "name": names, "task": names, "dataset": names, "advisor": names,
    "num_models": st.integers(-2, 10**12), "num_workers": st.integers(-2, 10**12),
    "priority": st.integers(), "collaborative": st.booleans(),
    "input_shape": st.lists(st.integers(-1, 9), max_size=4),
    "output_shape": st.lists(st.integers(-1, 9), max_size=2),
    "hyper": fields({"max_trials": st.integers(0, 3), "max_epochs_per_trial": st.integers(1, 3),
                     "delta": st.floats(0, 1), "max_total_epochs": st.integers(0, 9)}),
    "models": st.lists(fields(MODEL), min_size=1, max_size=3),
    "img": st.sampled_from([DATASET.test_x[0].tolist(), DATASET.test_x[0],
                            DATASET.test_x[:2], np.zeros((3, 8, 9)), np.zeros(0)]),
    "tenant": st.sampled_from(["default", "acme", "default", "gone"]),
}


@st.composite
def requests(draw, route: tuple, job: str):
    """``(method, path, body, header tenant, entry point)`` for one request."""
    method, pattern, handler, template = route
    path = template.replace("{job_id}", draw(st.just(job) | names))
    table = [name for name, _, _ in Gateway._bodies.get(handler, ())] + ["tenant"]
    body = draw(fields({name: PLAUSIBLE[name] for name in table}))
    body.update(draw(st.dictionaries(names, json_values, max_size=2)))
    if draw(st.sampled_from(["object"] * 19 + ["any"])) == "any":
        body = draw(json_values)
    header = draw(st.sampled_from([None, None, "acme", "gone"]))
    return method, path, body, header, draw(st.sampled_from(["sync", "async", "frontend"]))


def _answer(gateway, system, job, method, path, body, header, entry):
    if entry == "sync":
        return gateway.handle(method, path, body, tenant=header)
    if entry == "async":
        return asyncio.run(gateway.handle_async(method, path, body, tenant=header))
    frontend = AsyncServeFrontend(
        FrontendConfig(latency=lambda b: 0.001, tau=0.5, batch_sizes=(1, 2)),
        make_query_executor(system, job),
    )

    async def served():
        async with frontend:
            return await gateway.handle_async(method, path, body, tenant=header)

    gateway.attach_frontend(job, frontend)
    try:
        return asyncio.run(served())
    finally:
        gateway.detach_frontend(job)


@pytest.mark.parametrize("route", Gateway._routes, ids=lambda route: f"{route[0]} {route[3]}")
@seed(20180814)
@settings(max_examples=30, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_every_route_answers_200_or_4xx_and_a_4xx_changes_nothing(
    route, data, tmp_path, monkeypatch
):
    monkeypatch.chdir(tmp_path)  # no directory a letters-only name can import
    system, gateway, job = _deployed()
    request = data.draw(requests(route, job))
    before = _state(system)
    response = _answer(gateway, system, job, *request)
    assert response.status == 200 or 400 <= response.status < 500, response
    if response.status != 200:
        assert _state(system) == before, response
