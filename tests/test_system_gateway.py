"""Tests for the Rafiki facade, gateway, and SDK."""

import numpy as np
import pytest

import repro as rafiki
from repro.api.gateway import Gateway
from repro.api.sdk import connect
from repro.core.system import Rafiki
from repro.core.tune import HyperConf, SurrogateTrainer
from repro.data import make_image_classification
from repro.exceptions import ConfigurationError, GatewayError, JobNotFoundError


@pytest.fixture()
def system():
    return Rafiki(seed=5)


@pytest.fixture()
def dataset():
    return make_image_classification(
        name="food", num_classes=3, image_shape=(3, 8, 8),
        train_per_class=12, val_per_class=6, test_per_class=6,
        difficulty=0.3, seed=11,
    )


def quick_hyper():
    return HyperConf(max_trials=2, max_epochs_per_trial=3, early_stop_patience=3)


def surrogate_factory(entry, data):
    return SurrogateTrainer(seed=1)


class TestFacadeTraining:
    def test_train_job_lifecycle(self, system, dataset):
        system.import_images(dataset)
        job_id = system.create_train_job(
            "t", "ImageClassification", "food", hyper=quick_hyper(),
            backend_factory=surrogate_factory,
        )
        info = system.get_train_job(job_id)
        assert info.status == "completed"
        assert len(info.model_names) == 2
        assert info.best_performance > 0

    def test_get_models_returns_param_keys(self, system, dataset):
        system.import_images(dataset)
        job_id = system.create_train_job(
            "t", "ImageClassification", "food", hyper=quick_hyper(),
            backend_factory=surrogate_factory,
        )
        specs = system.get_models(job_id)
        assert specs
        for spec in specs:
            assert system.param_server.has(spec.param_key)

    def test_input_shape_validated(self, system, dataset):
        system.import_images(dataset)
        with pytest.raises(ConfigurationError, match="input_shape"):
            system.create_train_job(
                "t", "ImageClassification", "food", input_shape=(3, 256, 256),
                hyper=quick_hyper(), backend_factory=surrogate_factory,
            )

    def test_output_shape_validated(self, system, dataset):
        system.import_images(dataset)
        with pytest.raises(ConfigurationError, match="output_shape"):
            system.create_train_job(
                "t", "ImageClassification", "food", output_shape=(120,),
                hyper=quick_hyper(), backend_factory=surrogate_factory,
            )

    def test_unknown_job_raises(self, system):
        with pytest.raises(JobNotFoundError):
            system.get_train_job("ghost")

    def test_cluster_resources_released_after_training(self, system, dataset):
        system.import_images(dataset)
        system.create_train_job(
            "t", "ImageClassification", "food", hyper=quick_hyper(),
            backend_factory=surrogate_factory,
        )
        assert all(node.allocated.gpus == 0 for node in system.cluster.nodes.values())

    def test_master_state_checkpointed(self, system, dataset):
        system.import_images(dataset)
        job_id = system.create_train_job(
            "t", "ImageClassification", "food", hyper=quick_hyper(),
            backend_factory=surrogate_factory,
        )
        info = system.get_train_job(job_id)
        study_name = f"{job_id}/{info.model_names[0]}"
        assert system.cluster.checkpoints.has(study_name)


class TestFacadeInference:
    def _trained(self, system, dataset):
        system.import_images(dataset)
        job_id = system.create_train_job(
            "t", "ImageClassification", "food", hyper=quick_hyper(), num_workers=2
        )
        return system.get_models(job_id)

    def test_deploy_and_query_real_models(self, system, dataset):
        specs = self._trained(system, dataset)
        infer_id = system.create_inference_job(specs)
        result = system.query(infer_id, dataset.test_x[0])
        assert 0 <= result["label"] < 3
        assert len(result["votes"]) == len(specs)

    def test_batch_query(self, system, dataset):
        specs = self._trained(system, dataset)
        infer_id = system.create_inference_job(specs)
        result = system.query(infer_id, dataset.test_x[:4])
        assert len(result["label"]) == 4

    def test_stopped_job_rejects_queries(self, system, dataset):
        specs = self._trained(system, dataset)
        infer_id = system.create_inference_job(specs)
        system.stop_inference_job(infer_id)
        with pytest.raises(ConfigurationError, match="not running"):
            system.query(infer_id, dataset.test_x[0])

    def test_empty_model_list_rejected(self, system):
        with pytest.raises(ConfigurationError):
            system.create_inference_job([])


class TestGateway:
    def test_unknown_route_404(self, system):
        gateway = Gateway(system)
        response = gateway.handle("GET", "/nope")
        assert response.status == 404

    def test_bad_train_body_400(self, system):
        gateway = Gateway(system)
        response = gateway.handle("POST", "/train", {"name": "x"})
        assert response.status == 400
        assert "task" in response.body["error"]

    def test_unknown_job_404(self, system):
        gateway = Gateway(system)
        response = gateway.handle("GET", "/train/ghost")
        assert response.status == 404

    def test_non_json_body_rejected(self, system):
        gateway = Gateway(system)
        response = gateway.handle("POST", "/train", {"x": object()})
        assert response.status == 400

    def test_missing_body_field_is_400_not_404(self, system):
        """Regression: a handler's KeyError on the request body used to
        fall through to the catch-all and surface as 404 — blaming a
        missing *resource* for what is a malformed *request*."""
        gateway = Gateway(system)
        response = gateway.handle(
            "POST", "/inference", {"models": [{"model_name": "m"}]}
        )
        assert response.status == 400
        assert "param_key" in response.body["error"]

    def test_resource_not_found_still_404(self, system):
        gateway = Gateway(system)
        assert gateway.handle("GET", "/train/ghost").status == 404
        assert gateway.handle("GET", "/inference/ghost").status == 404
        assert gateway.handle("POST", "/inference/ghost/redeploy").status == 404

    def test_numpy_handler_result_serialises(self):
        """Regression: numpy scalars/arrays in a handler result crashed
        ``json.dumps`` and took the whole request down."""
        response = Gateway._serialise(
            {"count": np.int64(3), "score": np.float32(0.5),
             "flag": np.bool_(True), "row": np.arange(3)}
        )
        assert response.status == 200
        assert response.body == {"count": 3, "score": 0.5, "flag": True,
                                 "row": [0, 1, 2]}

    def test_unserialisable_handler_result_is_500(self):
        response = Gateway._serialise({"oops": object()})
        assert response.status == 500
        assert "not serialisable" in response.body["error"]

    def test_redeploy_route(self, system, dataset):
        system.import_images(dataset)
        job_id = system.create_train_job(
            "t", "ImageClassification", "food", hyper=quick_hyper(), num_workers=2
        )
        models = system.get_models(job_id)
        infer_id = system.create_inference_job(models)
        gateway = Gateway(system)
        response = gateway.handle("POST", f"/inference/{infer_id}/redeploy")
        assert response.ok
        assert response.body["job_id"] == infer_id
        assert len(response.body["models"]) == len(models)

    def test_dataset_routes(self, system, dataset, tmp_path):
        # write a real folder so the JSON route is exercised end to end
        for label in ("a", "b"):
            folder = tmp_path / label
            folder.mkdir()
            for i in range(4):
                np.save(folder / f"{i}.npy", np.zeros((3, 4, 4)))
        gateway = Gateway(system)
        response = gateway.handle("POST", "/datasets", {"directory": str(tmp_path)})
        assert response.ok
        assert response.body["num_classes"] == 2
        listing = gateway.handle("GET", "/datasets")
        assert response.body["name"] in listing.body["datasets"]


class TestMalformedBodies:
    """Regression: these bodies raised ``TypeError``, ``ValueError`` or
    ``RecursionError`` out of ``handle`` instead of answering 400."""

    TRAIN = {"name": "t", "task": "ImageClassification", "dataset": "food"}
    MODEL = {"model_name": "m", "param_key": "k"}
    #: case -> (path, body, what the error names)
    CASES = {
        "inference-list-body": ("/inference", ["models"], "JSON object"),
        "inference-models-of-ints": ("/inference", {"models": [1]}, "'models'"),
        "inference-models-string": ("/inference", {"models": "abc"}, "'models'"),
        "datasets-list-body": ("/datasets", ["directory"], "JSON object"),
        "query-list-body": ("/query/{job}", ["img"], "JSON object"),
        "train-num-models": ("/train", {**TRAIN, "num_models": "abc"}, "'num_models'"),
        "train-input-shape": ("/train", {**TRAIN, "input_shape": 5}, "'input_shape'"),
        "inference-priority": (
            "/inference", {"models": [MODEL], "priority": "hi"}, "'priority'"
        ),
        "inference-performance": (
            "/inference", {"models": [{**MODEL, "performance": "x"}]}, "'performance'"
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_answered_400_and_the_next_request_is_served(self, system, dataset, case):
        from serve_helpers import deploy_untrained

        job = deploy_untrained(system, dataset)
        gateway = Gateway(system)
        path, body, named = self.CASES[case]
        response = gateway.handle("POST", path.format(job=job), body)
        assert response.status == 400
        assert named in response.body["error"]
        query = {"img": dataset.test_x[0].tolist()}
        assert gateway.handle("POST", f"/query/{job}", query).status == 200

    def test_body_nested_past_the_recursion_limit_is_400(self, system):
        deep = []
        for _ in range(100_000):
            deep = [deep]
        gateway = Gateway(system)
        response = gateway.handle("POST", "/train", {"name": deep})
        assert response.status == 400
        assert response.body["error"].startswith("body is not JSON-serialisable")
        assert gateway.handle("GET", "/datasets").status == 200


class TestDatasetImportRefusals:
    """Regression: ``POST /datasets`` raised out of ``handle`` on a
    non-string field or an unreadable ``.npy``, and imported non-finite,
    complex or empty images with a 200. Each is a 400 now, and nothing is
    registered."""

    #: case -> (what the one ``a/0.npy`` file holds, body fields)
    CASES = {
        "directory-list": (np.zeros((3, 4, 4)), {"directory": ["x"]}),
        "directory-fd": (np.zeros((3, 4, 4)), {"directory": "fd"}),
        "name-int": (np.zeros((3, 4, 4)), {"name": 5}),
        "string-pixels": (np.full((3, 4, 4), "a"), {}),
        "object-pixels": (np.full((3, 4, 4), None, dtype=object), {}),
        "nan-pixel": (np.full((3, 4, 4), np.nan), {}),
        "inf-pixel": (np.full((3, 4, 4), np.inf), {}),
        "minus-inf-pixel": (np.full((3, 4, 4), -np.inf), {}),
        "complex-pixels": (np.zeros((3, 4, 4), dtype=complex), {}),
        "zero-length-axis": (np.zeros((0, 4, 4)), {}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_with_400_and_nothing_registered(self, system, dataset, tmp_path, case):
        import os

        pixels, fields = self.CASES[case]
        (tmp_path / "a").mkdir()
        np.save(tmp_path / "a" / "0.npy", pixels)
        system.import_images(dataset)
        gateway = Gateway(system)
        before = gateway.handle("GET", "/datasets").body
        body = {"directory": str(tmp_path), **fields}
        fd = os.open(tmp_path, os.O_RDONLY)  # a directory os.path.isdir accepts
        try:
            if body["directory"] == "fd":
                body["directory"] = fd
            response = gateway.handle("POST", "/datasets", body)
        finally:
            os.close(fd)
        assert response.status == 400
        assert gateway.handle("GET", "/datasets").body == before


class TestFieldTypes:
    """Regression: a list in a string field of ``POST /train`` or ``POST
    /inference`` raised ``TypeError`` out of ``handle``; a non-string name
    registered a job; a non-string model field answered 404; the string
    ``"false"`` ran a collaborative study; ``2.9``, ``true`` or ``"3"``
    passed as a count; and ``"0.5"`` or ``true`` deployed a model's
    performance as a number. Each is a 400 now, and nothing is
    registered."""

    TRAIN = {"name": "t", "task": "ImageClassification", "dataset": "food",
             "hyper": {"max_trials": 1, "max_epochs_per_trial": 1},
             "num_models": 1, "num_workers": 1}
    #: case -> (path, fields over the valid body, or over its one model, and
    #: the field the error names)
    CASES = {
        "train-name-int": ("/train", {"name": 1}, "'name'"),
        "train-name-list": ("/train", {"name": ["x"]}, "'name'"),
        "train-task-list": ("/train", {"task": ["x"]}, "'task'"),
        "train-dataset-list": ("/train", {"dataset": ["d"]}, "'dataset'"),
        "train-advisor-list": ("/train", {"advisor": ["random"]}, "'advisor'"),
        "train-collaborative-string": ("/train", {"collaborative": "false"},
                                       "'collaborative'"),
        "train-collaborative-int": ("/train", {"collaborative": 0}, "'collaborative'"),
        "train-num-models-fraction": ("/train", {"num_models": 2.9}, "'num_models'"),
        "train-num-workers-bool": ("/train", {"num_workers": True}, "'num_workers'"),
        "train-priority-string": ("/train", {"priority": "3"}, "'priority'"),
        "inference-dataset-list": ("/inference", {"dataset": ["d"]}, "'dataset'"),
        "inference-priority-bool": ("/inference", {"priority": True}, "'priority'"),
        "model-name-int": ("/inference/model", {"model_name": 1}, "'model_name'"),
        "model-param-key-list": ("/inference/model", {"param_key": ["k"]}, "'param_key'"),
        "model-task-int": ("/inference/model", {"task": 1}, "'task'"),
        "model-dataset-list": ("/inference/model", {"dataset": ["d"]}, "'dataset'"),
        "model-performance-string": ("/inference/model", {"performance": "0.5"},
                                     "'performance'"),
        "model-performance-bool": ("/inference/model", {"performance": True},
                                   "'performance'"),
    }

    def bodies(self, system, dataset):
        from serve_helpers import deploy_untrained

        spec = system.get_inference_job(deploy_untrained(system, dataset)).specs[0]
        model = {"model_name": spec.model_name, "param_key": spec.param_key,
                 "task": spec.task, "dataset": spec.dataset}
        return {"/train": dict(self.TRAIN), "/inference": {"models": [model]}}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_with_400_and_nothing_registered(self, system, dataset, case):
        bodies = self.bodies(system, dataset)
        path, fields, named = self.CASES[case]
        if path == "/inference/model":
            path = "/inference"
            body = {"models": [{**bodies[path]["models"][0], **fields}]}
        else:
            body = {**bodies[path], **fields}
        before = (len(system.train_jobs), len(system.inference_jobs),
                  len(system.cluster.jobs))
        response = Gateway(system).handle("POST", path, body)
        assert response.status == 400
        assert named in response.body["error"]
        after = (len(system.train_jobs), len(system.inference_jobs),
                 len(system.cluster.jobs))
        assert after == before

    def test_the_valid_bodies_are_served(self, system, dataset):
        bodies = self.bodies(system, dataset)
        gateway = Gateway(system)
        train = {**bodies["/train"], "collaborative": False, "num_workers": 1.0}
        assert gateway.handle("POST", "/train", train).status == 200
        assert gateway.handle("POST", "/inference", bodies["/inference"]).status == 200


class TestTenantField:
    """Regression: a body's non-string ``"tenant"`` went through ``str()``,
    so ``7`` or ``["x"]`` answered 200 as a new tenant ``'7'`` or
    ``"['x']"`` that the lenient registry registered."""

    @pytest.mark.parametrize("tenant", [7, ["x"], True, {"name": "x"}],
                             ids=["int", "list", "bool", "object"])
    def test_refused_with_400_counted_and_nothing_registered(self, system, tenant):
        from repro import telemetry
        from repro.tenancy import DEFAULT_TENANT

        before = [t.name for t in system.tenants.tenants()]
        response = Gateway(system).handle("GET", "/datasets", {"tenant": tenant})
        assert response.status == 400
        assert "'tenant'" in response.body["error"]
        assert [t.name for t in system.tenants.tenants()] == before
        requests = telemetry.get_registry().counter("repro_gateway_requests_total")
        assert requests.snapshot() == {
            f"method=GET,route=/datasets,status=400,tenant={DEFAULT_TENANT}": 1.0
        }
        seconds = telemetry.get_registry().histogram("repro_gateway_request_seconds")
        assert seconds.snapshot()["series"]["route=/datasets"]["count"] == 1

    def test_a_string_tenant_is_still_served(self, system):
        response = Gateway(system).handle("GET", "/datasets", {"tenant": "acme"})
        assert response.status == 200
        assert "acme" in [t.name for t in system.tenants.tenants()]


class TestSDK:
    def test_figure2_flow(self, system, dataset):
        connect(system)
        name = rafiki.import_images(dataset)
        hyper = rafiki.HyperConf(max_trials=2, max_epochs_per_trial=3)
        job = rafiki.Train(
            name="train", data=name, task="ImageClassification",
            input_shape=(3, 8, 8), output_shape=(3,), hyper=hyper,
        )
        job_id = job.run()
        models = rafiki.get_models(job_id)
        assert models
        infer_id = rafiki.Inference(models).run()
        result = rafiki.query(job=infer_id, data={"img": dataset.test_x[0]})
        assert "label" in result

    def test_query_without_img_rejected(self, system):
        connect(system)
        with pytest.raises(GatewayError):
            rafiki.query(job="x", data={})

    def test_gateway_error_surfaces(self, system):
        connect(system)
        with pytest.raises(GatewayError, match="HTTP 404"):
            rafiki.get_models("ghost")

    def test_train_sends_every_hyper_field(self, system, monkeypatch):
        # Regression: Train.run copied eight hand-listed fields, so an
        # epoch budget set through the SDK never reached the study.
        received = {}

        def create_train_job(**kwargs):
            received.update(kwargs)
            return "train-1"

        monkeypatch.setattr(system, "create_train_job", create_train_job)
        connect(system)
        hyper = HyperConf(max_trials=3, max_total_epochs=7)
        job = rafiki.Train(name="t", data="food", task="ImageClassification", hyper=hyper)
        assert job.run() == "train-1"
        assert received["hyper"] == hyper

    def test_import_images_registers_a_dataset_under_name(self, system, dataset):
        connect(system)
        assert rafiki.import_images(dataset, name="meals") == "meals"
        assert system.store.list_datasets() == ["meals"]
        stored = system.store.get_dataset("meals")
        np.testing.assert_array_equal(stored.train_x, dataset.train_x)
        assert dataset.name == "food"  # the caller's object is not renamed
