"""Cross-module integration tests.

These exercise the full stack: cluster-hosted tuning with failure
injection, the unified train-then-deploy flow over the gateway, and the
Section 8 food-logging case study end to end.
"""

import numpy as np
import pytest

import repro as rafiki
from repro.api.sdk import connect
from repro.cluster import ClusterManager, Node
from repro.cluster.manager import JobKind
from repro.cluster.node import Resources
from repro.core.system import Rafiki
from repro.core.tune import (
    CoStudyMaster,
    HyperConf,
    RandomSearchAdvisor,
    StudyMaster,
    SurrogateTrainer,
    section71_space,
)
from repro.core.tune.distributed import run_cluster_study
from repro.data import make_image_classification
from repro.paramserver import ParameterServer
from repro.sqlext import Column, Database, make_inference_udf


def small_cluster(nodes=3):
    manager = ClusterManager()
    for i in range(nodes):
        manager.add_node(Node(f"n{i}", capacity=Resources(cpus=8, gpus=3, memory_gb=64)))
    return manager


class TestClusterStudy:
    def _run(self, num_workers, failure_plan=None, max_trials=20, seed=0):
        manager = small_cluster()
        ps = ParameterServer()
        conf = HyperConf(max_trials=max_trials, max_epochs_per_trial=20)
        advisor = RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(seed))
        master = StudyMaster("cs", conf, advisor, ps)
        job = manager.submit_job(JobKind.TRAIN, name="cs", num_workers=num_workers,
                                 queue=False)
        report = run_cluster_study(
            manager, job, master, SurrogateTrainer(seed=seed), ps, conf,
            failure_plan=failure_plan,
        )
        manager.complete_job(job.job_id)
        return manager, report

    def test_completes_on_cluster(self):
        manager, report = self._run(num_workers=3)
        assert len(report.results) >= 20
        assert report.wall_time > 0

    def test_more_workers_finish_faster(self):
        _, slow = self._run(num_workers=1)
        _, fast = self._run(num_workers=4)
        assert fast.wall_time < slow.wall_time
        # near-linear: 4 workers should be at least 2.5x faster
        assert slow.wall_time / fast.wall_time > 2.5

    def test_survives_node_failure(self):
        """A node dies mid-study; replacements finish the trial budget."""
        manager, report = self._run(
            num_workers=3, failure_plan=[(200.0, "n0", None)], max_trials=15
        )
        assert len(report.results) >= 15
        assert manager.recoveries > 0

    def test_costudy_on_cluster_checkpoints_master(self):
        manager = small_cluster()
        ps = ParameterServer()
        conf = HyperConf(max_trials=10, max_epochs_per_trial=20)
        advisor = RandomSearchAdvisor(section71_space(), rng=np.random.default_rng(1))
        master = CoStudyMaster("co", conf, advisor, ps, rng=np.random.default_rng(2))
        job = manager.submit_job(JobKind.TRAIN, name="co", num_workers=2, queue=False)
        run_cluster_study(manager, job, master, SurrogateTrainer(seed=1), ps, conf)
        manager.complete_job(job.job_id)
        assert manager.checkpoints.has("co")
        restored = manager.checkpoints.restore("co")
        assert restored["num_finished"] == master.num_finished


class TestFoodLoggingCaseStudy:
    """The Section 8 scenario, end to end, with real NumPy models."""

    @pytest.fixture(scope="class")
    def deployment(self):
        system = Rafiki(seed=9)
        gateway = connect(system)
        dataset = make_image_classification(
            name="food", num_classes=3, image_shape=(3, 8, 8),
            train_per_class=20, val_per_class=8, test_per_class=10,
            difficulty=0.3, seed=9,
        )
        name = rafiki.import_images(dataset)
        hyper = rafiki.HyperConf(max_trials=3, max_epochs_per_trial=5)
        job_id = rafiki.Train(
            name="food-train", data=name, task="ImageClassification",
            input_shape=(3, 8, 8), output_shape=(3,), hyper=hyper,
        ).run()
        models = rafiki.get_models(job_id)
        infer_id = rafiki.Inference(models).run()
        return system, gateway, dataset, infer_id

    def test_sql_udf_predicate_pushdown(self, deployment):
        system, gateway, dataset, infer_id = deployment
        db = Database()
        db.create_table(
            "foodlog",
            [Column("user_id", "integer"), Column("age", "integer", not_null=True),
             Column("image_path", "text", not_null=True)],
            primary_key=("user_id",),
        )
        images = {}
        for i in range(10):
            images[f"img{i}.npy"] = dataset.test_x[i]
            db.insert("foodlog", user_id=i, age=20 + 5 * i, image_path=f"img{i}.npy")
        labels = ("noodle", "rice", "salad")
        db.udfs.register("food_name", make_inference_udf(gateway, infer_id, images, labels))
        result = db.execute(
            "SELECT food_name(image_path) AS name, count(*) FROM foodlog "
            "WHERE age > 52 GROUP BY name"
        )
        # rows with age > 52: users 7, 8, 9 -> exactly 3 inference calls
        assert result.udf_calls == 3
        assert sum(count for _, count in result.rows) == 3
        assert all(label in labels for label, _ in result.rows)

    def test_retraining_does_not_change_sql(self, deployment):
        """Re-deploying a model only swaps the job id behind the UDF."""
        system, gateway, dataset, _ = deployment
        job_id = rafiki.Train(
            name="food-train-2", data="food", task="ImageClassification",
            hyper=rafiki.HyperConf(max_trials=2, max_epochs_per_trial=3),
        ).run()
        new_infer = rafiki.Inference(rafiki.get_models(job_id)).run()
        db = Database()
        db.create_table("t", [Column("p", "text")])
        db.insert("t", p="x.npy")
        db.udfs.register(
            "food_name",
            make_inference_udf(gateway, new_infer, {"x.npy": dataset.test_x[0]},
                               ("noodle", "rice", "salad")),
        )
        sql = "SELECT food_name(p) AS name, count(*) FROM t GROUP BY name"
        result = db.execute(sql)  # identical SQL, new deployment
        assert len(result.rows) == 1

    def test_mobile_app_style_query(self, deployment):
        """RESTful query path with a JSON image payload (Figure 2)."""
        system, gateway, dataset, infer_id = deployment
        response = gateway.handle(
            "POST", f"/query/{infer_id}", {"img": dataset.test_x[1].tolist()}
        )
        assert response.ok
        assert response.body["label"] in (0, 1, 2)

    def test_deployed_ensemble_beats_chance(self, deployment):
        system, gateway, dataset, infer_id = deployment
        result = system.query(infer_id, dataset.test_x)
        predictions = np.array(result["label"])
        accuracy = float(np.mean(predictions == dataset.test_y))
        assert accuracy > 0.5  # 3 classes, chance = 0.33


class TestUnifiedArchitectureProperties:
    def test_instant_deployment_after_training(self):
        """The parameter server bridges training and inference with no
        export step: get_models -> Inference uses the same keys."""
        system = Rafiki(seed=4)
        dataset = make_image_classification(
            name="d", num_classes=2, image_shape=(3, 8, 8),
            train_per_class=10, val_per_class=4, test_per_class=4,
            difficulty=0.3, seed=4,
        )
        system.import_images(dataset)
        job_id = system.create_train_job(
            "t", "ImageClassification", "d",
            hyper=HyperConf(max_trials=2, max_epochs_per_trial=3),
        )
        cache_hits_before = system.param_server.cache_stats()["hits"]
        specs = system.get_models(job_id)
        system.create_inference_job(specs)
        # deployment read parameters straight from the (hot) cache
        assert system.param_server.cache_stats()["hits"] > cache_hits_before

    def test_two_systems_in_one_process_are_the_same_run(self):
        """Ids are each system's own, so a same-seed system built later
        in the process repeats the first one exactly."""
        dataset = make_image_classification(
            name="d", num_classes=2, image_shape=(3, 8, 8),
            train_per_class=10, val_per_class=4, test_per_class=4,
            difficulty=0.3, seed=4,
        )

        def run():
            system = Rafiki(seed=0)
            system.import_images(dataset)
            train_id = system.create_train_job(
                "t", "ImageClassification", "d",
                hyper=HyperConf(max_trials=2, max_epochs_per_trial=2),
            )
            infer_id = system.create_inference_job(system.get_models(train_id))
            info = system.get_train_job(train_id)
            reports = {
                name: [(r.trial.trial_id, r.performance, r.epochs)
                       for r in report.results]
                for name, report in info.reports.items()
            }
            ids = (train_id, infer_id, info.cluster_job_id, sorted(system.cluster.containers))
            return ids, reports, system.query(infer_id, dataset.test_x)

        first, second = run(), run()
        assert first == second
        (train_id, infer_id, cluster_job_id, containers), reports, _ = first
        assert (train_id, infer_id, cluster_job_id) == ("train-1", "infer-1", "job-1")
        assert containers[0] == "ctr-1"
        # every study of the job numbers its own trials from 1
        assert all(min(t[0] for t in trials) == 1 for trials in reports.values())
