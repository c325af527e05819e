"""Tests for the extension features: UCB model selection (Ease.ml-style)
and the Clipper-style prediction cache every query route goes through."""

import asyncio
import copy
import gc
import json
import weakref

import numpy as np
import pytest

from repro import chaos, telemetry
from repro.api import sdk
from repro.api.gateway import Gateway, make_query_executor
from repro.chaos import FaultKind, FaultPlan, FaultRule
from repro.core.serve import PredictionCache
from repro.core.serve.frontend import AsyncServeFrontend, FrontendConfig
from repro.core.system import Rafiki
from repro.core.tune import HyperConf
from repro.data import make_image_classification
from repro.exceptions import ConfigurationError, RequestShedError
from repro.sqlext import make_batched_inference_udf
from repro.tensor import default_dtype
from repro.zoo import UCBModelSelector


class TestUCBModelSelector:
    def test_every_arm_tried_once_first(self):
        selector = UCBModelSelector(["a", "b", "c"], rng=np.random.default_rng(0))
        first_three = set()
        for _ in range(3):
            model = selector.select()
            first_three.add(model)
            selector.report(model, 0.5)
        assert first_three == {"a", "b", "c"}

    def test_budget_concentrates_on_best_arm(self):
        rng = np.random.default_rng(1)
        selector = UCBModelSelector(["weak", "strong"], exploration=0.3, rng=rng)
        true_means = {"weak": 0.55, "strong": 0.80}
        for _ in range(60):
            model = selector.select()
            selector.report(model, true_means[model] + rng.normal(0, 0.03))
        allocation = selector.allocation()
        assert allocation["strong"] > 2 * allocation["weak"]

    def test_under_performers_still_get_some_pulls(self):
        """UCB never fully starves an arm (exploration bonus grows)."""
        rng = np.random.default_rng(2)
        selector = UCBModelSelector(["a", "b"], exploration=1.0, rng=rng)
        means = {"a": 0.4, "b": 0.8}
        for _ in range(100):
            model = selector.select()
            selector.report(model, means[model] + rng.normal(0, 0.02))
        assert selector.allocation()["a"] >= 3

    def test_report_unknown_model_rejected(self):
        selector = UCBModelSelector(["a"])
        with pytest.raises(ConfigurationError):
            selector.report("ghost", 0.5)

    def test_empty_and_duplicate_candidates_rejected(self):
        with pytest.raises(ConfigurationError):
            UCBModelSelector([])
        with pytest.raises(ConfigurationError):
            UCBModelSelector(["a", "a"])


def summing(calls=None, remember=True):
    """A miss callback: one float per input; logs the size of each call."""

    def predict_batch(items):
        if calls is not None:
            calls.append(len(items))
        return [float(np.sum(item)) for item in items], remember

    return predict_batch


class TestPredictionCache:
    def test_repeated_input_hits_cache(self, rng):
        calls = []
        cache = PredictionCache(capacity=8)
        image = rng.normal(size=(3, 4, 4))
        first = cache.query_batch([image], summing(calls))
        second = cache.query_batch([image], summing(calls))
        assert first == second == [float(image.sum())]
        assert calls == [1]
        assert cache.hits == 1
        assert cache.hit_rate == 0.5

    def test_distinct_inputs_miss(self, rng):
        cache = PredictionCache(capacity=8)
        cache.query_batch([rng.normal(size=(2, 2))], summing())
        cache.query_batch([rng.normal(size=(2, 2))], summing())
        assert cache.misses == 2
        assert cache.hits == 0

    def test_lru_eviction(self, rng):
        cache = PredictionCache(capacity=2)
        a, b, c = (rng.normal(size=(2,)) for _ in range(3))
        cache.query_batch([a], summing())
        cache.query_batch([b], summing())
        cache.query_batch([c], summing())  # evicts a
        assert len(cache) == 2
        cache.query_batch([a], summing())
        assert cache.misses == 4

    def test_shape_is_part_of_the_key(self):
        cache = PredictionCache(capacity=8)
        shapes = cache.query_batch(
            [np.zeros(4), np.zeros((2, 2))],
            lambda items: ([item.shape for item in items], True),
        )
        assert shapes == [(4,), (2, 2)]
        assert cache.misses == 2

    def test_invalidate_all(self, rng):
        cache = PredictionCache(capacity=8)
        image = rng.normal(size=(2,))
        cache.query_batch([image], summing())
        cache.invalidate_all()
        cache.query_batch([image], summing())
        assert cache.misses == 2

    def test_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            PredictionCache(capacity=0)

    def test_dtype_is_part_of_the_key(self):
        """Regression: int32 and float32 zeros share raw bytes and shape.

        Before dtype joined the digest, the second input was served the
        first's cached prediction — a silently wrong result.
        """
        cache = PredictionCache(capacity=8)
        dtypes = cache.query_batch(
            [np.zeros(4, dtype=np.int32), np.zeros(4, dtype=np.float32)],
            lambda items: ([str(item.dtype) for item in items], True),
        )
        assert dtypes == ["int32", "float32"]
        assert cache.misses == 2
        assert cache.hits == 0

    def test_in_batch_duplicates_cost_one_forward_row(self, rng):
        calls = []
        cache = PredictionCache(capacity=8)
        a, b = rng.normal(size=(2, 3))
        results = cache.query_batch(np.stack([a, b, a, a, b]), summing(calls))
        assert results == [float(x.sum()) for x in (a, b, a, a, b)]
        assert calls == [2]
        assert (cache.misses, cache.hits) == (2, 3)

    def test_fill_larger_than_capacity_returns_every_result(self, rng):
        cache = PredictionCache(capacity=2)
        batch = rng.normal(size=(5, 3))
        cache.query_batch(batch[:1], summing())  # a hit the fill will evict
        results = cache.query_batch(batch, summing())
        assert results == [float(row.sum()) for row in batch]
        assert len(cache) == 2

    def test_results_not_to_be_remembered_serve_their_batch_only(self, rng):
        calls = []
        cache = PredictionCache(capacity=8)
        a, b = rng.normal(size=(2, 3))
        cache.query_batch([a], summing(calls))
        once = cache.query_batch([a, b, b], summing(calls, remember=False))
        assert once == [float(a.sum()), float(b.sum()), float(b.sum())]
        assert len(cache) == 1
        cache.query_batch([a, b], summing(calls))
        assert calls == [1, 1, 1]  # b was forwarded again, a never was


@pytest.fixture
def deployed():
    """A two-model job on a fresh system: (system, infer_id, info, dataset)."""
    system = Rafiki(seed=8)
    dataset = make_image_classification(
        name="d", num_classes=2, image_shape=(3, 8, 8),
        train_per_class=10, val_per_class=4, test_per_class=4,
        difficulty=0.3, seed=8,
    )
    system.import_images(dataset)
    job_id = system.create_train_job(
        "t", "ImageClassification", "d",
        hyper=HyperConf(max_trials=2, max_epochs_per_trial=3),
    )
    infer_id = system.create_inference_job(system.get_models(job_id))
    return system, infer_id, system.get_inference_job(infer_id), dataset


class TestFacadeQueryCache:
    def test_repeated_queries_served_from_cache(self, deployed):
        system, infer_id, info, dataset = deployed
        image = dataset.test_x[0]
        first = system.query(infer_id, image)
        second = system.query(infer_id, image)
        assert first["label"] == second["label"]
        assert info.cache.hits == 1
        assert info.queries_served == 2

    def test_redeploy_invalidates_cache(self, deployed):
        system, infer_id, info, dataset = deployed
        system.query(infer_id, dataset.test_x[0])
        assert len(info.cache) == 1
        # continued training leaves a better checkpoint under the key
        spec = info.specs[0]
        system.param_server.put(
            spec.param_key, system.param_server.get(spec.param_key),
            performance=0.99, model=spec.model_name, dataset="d",
        )
        out = system.redeploy_inference_job(infer_id)
        assert out["models"][0]["performance"] == 0.99
        assert len(info.cache) == 0  # stale predictions dropped
        assert info.specs[0].performance == 0.99

    def test_gateway_redeploy_moves_query_answers(self, deployed):
        """POST /inference/{id}/redeploy drops the answers the old
        parameters produced: the next POST /query votes with the new ones."""
        system, infer_id, info, dataset = deployed
        gateway = Gateway(system)

        def gateway_labels():
            body = {"img": dataset.test_x[:8].tolist()}
            return gateway.handle("POST", f"/query/{infer_id}", body).body["label"]

        def direct_labels():
            return list(system.query(infer_id, dataset.test_x[:8])["label"])

        before = gateway_labels()
        assert before == direct_labels()
        # continued training leaves other parameters under the same keys:
        # here, every replica's vote is turned over
        for spec in info.specs:
            state = system.param_server.get(spec.param_key)
            for name in state:
                if name.endswith(("/fc/W", "/fc/b")):
                    state[name] = -state[name]
            system.param_server.put(spec.param_key, state, performance=spec.performance)
        assert gateway.handle("POST", f"/inference/{infer_id}/redeploy").status == 200
        assert gateway_labels() == direct_labels() != before

    def test_scalar_udf_answers_move_with_a_redeploy(self, deployed):
        """Regression: ``make_inference_udf`` memoised per path in its
        closure, which no redeploy reached — the row-at-a-time executor
        kept answering with the old parameters' labels."""
        from repro.sqlext import Column, Database, make_inference_udf

        system, infer_id, info, dataset = deployed
        gateway = Gateway(system)
        images = {f"photos/{i}.npy": image for i, image in enumerate(dataset.test_x)}
        db = Database()
        db.create_table(
            "log", [Column("id", "integer"), Column("path", "text", not_null=True)],
            primary_key=("id",),
        )
        for row in range(8):
            db.insert("log", id=row, path=f"photos/{row}.npy")
        db.udfs.register("label", make_inference_udf(gateway, infer_id, images))

        def naive_labels():
            rows = db.execute("SELECT id, label(path) FROM log ORDER BY id",
                              executor="naive").rows
            return [label for _id, label in rows]

        def direct_labels():
            return list(system.query(infer_id, dataset.test_x[:8])["label"])

        before = naive_labels()
        assert before == direct_labels()
        for spec in info.specs:  # every replica's vote is turned over
            state = system.param_server.get(spec.param_key)
            for name in state:
                if name.endswith(("/fc/W", "/fc/b")):
                    state[name] = -state[name]
            system.param_server.put(spec.param_key, state, performance=spec.performance)
        assert gateway.handle("POST", f"/inference/{infer_id}/redeploy").status == 200
        assert naive_labels() == direct_labels() != before

    def test_every_route_is_the_one_cached_path(self, deployed, monkeypatch):
        """Single, batch, SDK, async front end and SQL UDF: one answer.

        Each route answers a cold cache with forward passes and a warm
        one with none, counts one hit per image, and never sees an
        answer from before a redeploy.
        """
        system, infer_id, info, dataset = deployed
        images = dataset.test_x[:4]
        assert len({image.tobytes() for image in images}) == len(images)
        forwards = []
        for network in info.networks:
            inner = network.predict_labels
            monkeypatch.setattr(
                network, "predict_labels",
                lambda batch, inner=inner: forwards.append(len(batch)) or inner(batch),
            )
        gateway = sdk.connect(system)
        frontend = AsyncServeFrontend(
            FrontendConfig(latency=lambda b: 0.001, tau=0.5, batch_sizes=(1, 2, 4)),
            make_query_executor(system, infer_id),
        )
        gateway.attach_frontend(infer_id, frontend)
        food_label = make_batched_inference_udf(
            gateway, infer_id, {str(i): image for i, image in enumerate(images)}
        )

        def single():
            return [system.query(infer_id, image) for image in images]

        def batch():
            result = system.query(infer_id, images)
            return [
                {"label": label, "votes": votes}
                for label, votes in zip(result["label"], result["votes"])
            ]

        def through_sdk():
            return [sdk.query(infer_id, {"img": image}) for image in images]

        def through_frontend():
            async def scenario():
                async with frontend:
                    return await asyncio.gather(*(
                        gateway.handle_async(
                            "POST", f"/query/{infer_id}", {"img": image.tolist()},
                            client_id=f"c{i}",
                        )
                        for i, image in enumerate(images)
                    ))
            return [response.body for response in asyncio.run(scenario())]

        def through_sql_udf():
            return [{"label": label} for label in food_label([str(i) for i in range(4)])]

        expected = None
        for route in (single, batch, through_sdk, through_frontend, through_sql_udf):
            system.redeploy_inference_job(infer_id)
            for warm in (False, True):
                forwards.clear()
                hits = info.cache.hits
                answers = route()
                if expected is None:
                    expected = answers
                for answer, reference in zip(answers, expected, strict=True):
                    assert answer["label"] == reference["label"], route.__name__
                    assert answer.get("votes", reference["votes"]) == reference["votes"]
                assert info.cache.hits - hits == (len(images) if warm else 0), route.__name__
                assert bool(forwards) != warm, route.__name__
                if not warm:
                    # one row per image per replica, however it was batched
                    assert sum(forwards) == len(images) * len(info.networks)


class _NoQueue:
    """A front end that only runs the query: what ``handle_async`` awaits."""

    def __init__(self, system, infer_id):
        self.system, self.infer_id = system, infer_id

    async def submit(self, image, client_id="default", tenant="default"):
        return self.system.query(self.infer_id, image)


class TestOneGatewayPipeline:
    """``handle`` and ``handle_async`` answer and count a query alike."""

    def _shed(*args, **kwargs):
        raise RequestShedError("tenant_rate_limit", 0.25)

    CASES = {
        "200": (lambda image: {"img": image}, None, None),
        "400-missing-img": (lambda image: {}, None, None),
        "400-ragged-img": (lambda image: {"img": [[1.0, 2.0], [3.0]]}, None, None),
        "400-bad-body": (lambda image: {"img": {1, 2}}, None, None),
        "403": (lambda image: {"img": image}, "suspended", None),
        "429": (lambda image: {"img": image}, None, _shed),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sync_and_async_answer_and_count_alike(self, deployed, monkeypatch, case):
        system, infer_id, info, dataset = deployed
        make_body, tenant, query = self.CASES[case]
        system.tenants.register("suspended")
        system.tenants.suspend("suspended")
        if query is not None:
            monkeypatch.setattr(system, "query", query)
        gateway = Gateway(system)
        body = make_body(dataset.test_x[0].tolist())
        path = f"/query/{infer_id}"

        def observed(send):
            previous = telemetry.set_registry(telemetry.MetricsRegistry())
            try:
                response = send()
                registry = telemetry.get_registry()
                return (
                    response.status,
                    json.dumps(response.body, sort_keys=True),
                    registry.counter("repro_gateway_requests_total").snapshot(),
                    sorted(registry.histogram("repro_gateway_request_seconds")
                           .snapshot()["series"]),
                )
            finally:
                telemetry.set_registry(previous)

        sync = observed(lambda: gateway.handle("POST", path, body, tenant=tenant))
        gateway.attach_frontend(infer_id, _NoQueue(system, infer_id))
        via_frontend = observed(lambda: asyncio.run(
            gateway.handle_async("POST", path, body, tenant=tenant)
        ))
        assert sync == via_frontend
        assert sync[0] == int(case[:3])
        assert list(sync[2].values()) == [1.0]
        assert "route=/query/{job_id}" in next(iter(sync[2]))

    def test_refused_tenant_reaches_no_handler_and_no_front_end(self, deployed):
        system, infer_id, info, dataset = deployed
        system.tenants.register("suspended")
        system.tenants.suspend("suspended")
        gateway = Gateway(system)
        gateway.attach_frontend(infer_id, None)  # any use of it would raise
        body = {"img": dataset.test_x[0].tolist()}
        for response in (
            gateway.handle("POST", f"/query/{infer_id}", body, tenant="suspended"),
            asyncio.run(gateway.handle_async(
                "POST", f"/query/{infer_id}", body, tenant="suspended"
            )),
        ):
            assert response.status == 403
        assert info.queries_served == 0

    @pytest.mark.parametrize("shape", [(3, 5, 5), (8, 8), (1, 1, 3, 8, 8)])
    def test_wrong_shaped_image_is_400_and_takes_no_slot(self, deployed, shape):
        """Regression: the sync route raised ``ValueError`` out of the first
        convolution, and the async one queued the image before refusing it."""
        system, infer_id, info, dataset = deployed
        assert info.image_shape == (3, 8, 8)
        gateway = Gateway(system)
        frontend = AsyncServeFrontend(
            FrontendConfig(latency=lambda b: 0.001, tau=0.5, batch_sizes=(1, 2)),
            make_query_executor(system, infer_id),
        )
        path, body = f"/query/{infer_id}", {"img": np.zeros(shape).tolist()}
        sync = gateway.handle("POST", path, body)
        gateway.attach_frontend(infer_id, frontend)

        async def scenario():
            async with frontend:
                return await gateway.handle_async("POST", path, body)

        for response in (sync, asyncio.run(scenario())):
            assert response.status == 400
            assert f"{shape} does not match expected (3, 8, 8)" in response.body["error"]
        assert frontend.core.admitted == 0
        assert info.queries_served == 0

    def test_a_batch_of_images_is_still_one_sync_query(self, deployed):
        system, infer_id, info, dataset = deployed
        response = Gateway(system).handle(
            "POST", f"/query/{infer_id}", {"img": dataset.test_x[:3].tolist()}
        )
        assert response.status == 200
        assert len(response.body["label"]) == 3


class _JsonSpy:
    """Stands in for ``json.dumps`` and ``json.loads``; records their inputs."""

    def __init__(self):
        self.encoded, self.decoded = [], []
        self._dumps, self._loads = json.dumps, json.loads

    def dumps(self, value, **kwargs):
        self.encoded.append(value)
        return self._dumps(value, **kwargs)

    def loads(self, text, **kwargs):
        self.decoded.append(text)
        return self._loads(text, **kwargs)


class _Dict(dict):
    """A dict a weak reference can watch."""


class _List(list):
    """A list a weak reference can watch."""


def _watched(value, refs: list):
    """``value`` rebuilt from weakly referenceable containers, each
    container's weak reference appended to ``refs``."""
    if isinstance(value, dict):
        value = _Dict({key: _watched(item, refs) for key, item in value.items()})
    elif isinstance(value, list):
        value = _List(_watched(item, refs) for item in value)
    else:
        return value
    refs.append(weakref.ref(value))
    return value


class TestTheBodyIsNotCopied:
    """The gateway checks a request body instead of round-tripping it
    through JSON, so handlers see the caller's object."""

    def test_a_query_body_is_never_encoded(self, deployed, monkeypatch):
        system, infer_id, info, dataset = deployed
        spy = _JsonSpy()
        monkeypatch.setattr(json, "dumps", spy.dumps)
        monkeypatch.setattr(json, "loads", spy.loads)
        gateway = Gateway(system)
        frontend = AsyncServeFrontend(
            FrontendConfig(latency=lambda b: 0.001, tau=0.5, batch_sizes=(1,)),
            make_query_executor(system, infer_id),
        )
        path, body = f"/query/{infer_id}", {"img": dataset.test_x[0].tolist()}
        sync = gateway.handle("POST", path, body)
        gateway.attach_frontend(infer_id, frontend)

        async def scenario():
            async with frontend:
                return await gateway.handle_async("POST", path, body)

        assert [sync.status, asyncio.run(scenario()).status] == [200, 200]
        assert frontend.core.admitted == 1
        assert spy.encoded == [] and spy.decoded == []  # neither body nor answer

    def test_post_routes_neither_mutate_nor_keep_the_body(self, deployed, tmp_path):
        system, infer_id, info, dataset = deployed
        for label in ("a", "b"):
            (tmp_path / label).mkdir()
            for i in range(2):
                np.save(tmp_path / label / f"{i}.npy", np.zeros((3, 4, 4)))
        gateway = Gateway(system)
        models = [
            {"model_name": s.model_name, "param_key": s.param_key,
             "performance": s.performance, "task": s.task, "dataset": s.dataset}
            for s in info.specs
        ]
        requests = {  # route template -> (path, body)
            "/datasets": ("/datasets", {"directory": str(tmp_path), "name": "folder"}),
            "/train": ("/train", {
                "name": "t2", "task": "ImageClassification", "dataset": "d",
                "input_shape": [3, 8, 8], "num_models": 1, "num_workers": 1,
                "hyper": {"max_trials": 1, "max_epochs_per_trial": 1},
            }),
            "/inference": ("/inference", {"models": models, "priority": 1}),
            "/inference/{job_id}/redeploy": (
                f"/inference/{infer_id}/redeploy", {"reason": "refresh"}
            ),
            "/query/{job_id}": (
                f"/query/{infer_id}", {"img": dataset.test_x[:2].tolist()}
            ),
        }
        assert set(requests) == {
            template for method, _, _, template in gateway._routes if method == "POST"
        }
        for template, (path, plain) in requests.items():
            refs = []
            body = _watched(plain, refs)
            before = copy.deepcopy(body)
            response = gateway.handle("POST", path, body)
            assert response.status == 200, (template, response.body)
            assert body == before, template
            del body
            gc.collect()
            assert all(ref() is None for ref in refs), template

    def test_a_query_image_decodes_to_the_engine_dtype(self, deployed):
        system, infer_id, info, dataset = deployed
        pixels = dataset.test_x[0].tolist()
        image = Gateway(system)._query_image({"img": pixels}, infer_id)
        assert image.dtype == default_dtype()
        # the bits a float64 decode and a cast gave, so cache keys hold
        assert image.tobytes() == np.asarray(pixels).astype(default_dtype()).tobytes()


class TestDegradedEnsemble:
    def _fault(self, info):
        return FaultPlan([
            FaultRule(f"serve.model.{info.specs[0].model_name}",
                      FaultKind.EXCEPTION, max_faults=1)
        ])

    def test_degraded_answer_does_not_outlive_the_outage(self, deployed):
        """Regression: a one-vote answer used to be memoised.

        With one replica faulting during ``query(x)`` the cache kept
        ``votes == [v]`` next to ``models`` naming both replicas, and
        served that after the replica was healthy again.
        """
        system, infer_id, info, dataset = deployed
        image = dataset.test_x[0]
        names = [spec.model_name for spec in info.specs]
        with chaos.active(self._fault(info)):
            degraded = system.query(infer_id, image)
        assert degraded["models"] == names[1:]
        assert len(degraded["votes"]) == 1
        assert len(info.cache) == 0
        healthy = system.query(infer_id, image)
        assert healthy["models"] == names
        assert len(healthy["votes"]) == 2
        assert system.query(infer_id, image) == healthy
        assert info.cache.hits == 1

    def test_cached_rows_beside_degraded_ones_keep_votes_aligned(self, deployed):
        system, infer_id, info, dataset = deployed
        cached, fresh = dataset.test_x[:2]
        full = system.query(infer_id, cached)
        with chaos.active(self._fault(info)):
            result = system.query(infer_id, np.stack([cached, fresh]))
        assert result["models"] == full["models"][1:]
        assert result["votes"][0] == full["votes"][1:]
        assert [len(votes) for votes in result["votes"]] == [1, 1]
        # a lone voter's vote is the label
        assert result["label"] == [votes[0] for votes in result["votes"]]
        # the full answer is still what the cache holds
        assert system.query(infer_id, cached) == full

    def test_no_live_replica_is_a_503_not_the_clients_400(self, deployed):
        """Regression: ``ServingError`` fell through to the generic 400."""
        system, infer_id, info, dataset = deployed
        gateway = Gateway(system)
        path = f"/query/{infer_id}"
        healthy, outage = ({"img": image.tolist()} for image in dataset.test_x[:2])
        assert gateway.handle("POST", path, healthy).status == 200
        for breaker in info.breakers:
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
        assert info.live_replicas() == []
        response = gateway.handle("POST", path, outage)
        assert response.status == 503
        assert "no live model replicas" in response.body["error"]
        assert response.body["retry_after"] > 0.0
