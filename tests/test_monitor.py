"""Tests for the monitoring dashboard."""

import pytest

from repro.api.gateway import Gateway
from repro.api.monitor import dashboard_data
from repro.core.system import Rafiki
from repro.core.tune import HyperConf
from repro.data import make_image_classification


@pytest.fixture(scope="module")
def busy_system():
    system = Rafiki(seed=12)
    dataset = make_image_classification(
        name="d", num_classes=2, image_shape=(3, 8, 8),
        train_per_class=8, val_per_class=4, test_per_class=4,
        difficulty=0.3, seed=12,
    )
    system.import_images(dataset)
    job_id = system.create_train_job(
        "food-train", "ImageClassification", "d",
        hyper=HyperConf(max_trials=2, max_epochs_per_trial=2),
    )
    infer_id = system.create_inference_job(system.get_models(job_id))
    system.query(infer_id, dataset.test_x[0])
    system.query(infer_id, dataset.test_x[0])  # second query hits the cache
    return system, job_id, infer_id


class TestDashboardData:
    def test_train_jobs_listed(self, busy_system):
        system, job_id, _ = busy_system
        data = dashboard_data(system)
        jobs = {row["job_id"]: row for row in data["train_jobs"]}
        assert job_id in jobs
        assert jobs[job_id]["status"] == "completed"
        assert jobs[job_id]["best"] > 0

    def test_inference_jobs_listed_with_cache_stats(self, busy_system):
        system, _, infer_id = busy_system
        data = dashboard_data(system)
        jobs = {row["job_id"]: row for row in data["inference_jobs"]}
        assert jobs[infer_id]["queries_served"] == 2
        assert jobs[infer_id]["cache_hit_rate"] == pytest.approx(0.5)

    def test_cluster_utilisation(self, busy_system):
        system, _, _ = busy_system
        data = dashboard_data(system)
        assert len(data["nodes"]) == len(system.cluster.nodes)
        # the inference job still holds GPUs
        assert sum(row["gpus_used"] for row in data["nodes"]) > 0

    def test_parameter_server_summary(self, busy_system):
        system, _, _ = busy_system
        data = dashboard_data(system)
        assert data["parameter_server"]["keys"] >= 1

    def test_empty_system(self):
        data = dashboard_data(Rafiki(seed=0))
        assert data["train_jobs"] == []
        assert data["inference_jobs"] == []


class TestGatewayRoute:
    def test_dashboard_route(self, busy_system):
        system, job_id, _ = busy_system
        gateway = Gateway(system)
        response = gateway.handle("GET", "/dashboard")
        assert response.ok
        assert any(row["job_id"] == job_id for row in response.body["train_jobs"])
