"""Edge-case tests for the tuning protocol, gateway routes and config."""

import numpy as np
import pytest

from repro import telemetry
from repro.api.gateway import Gateway
from repro.cluster.message import Message, MessageType
from repro.core.system import Rafiki
from repro.core.tune import (
    HyperConf,
    RandomSearchAdvisor,
    StudyMaster,
    SurrogateTrainer,
    TuneWorker,
    make_workers,
    run_study,
    section71_space,
)
from repro.data import make_image_classification
from repro.exceptions import ConfigurationError
from repro.paramserver import ParameterServer


def minimal_worker():
    conf = HyperConf(max_trials=2, max_epochs_per_trial=5)
    ps = ParameterServer()
    return TuneWorker("w", SurrogateTrainer(), ps, conf), ps


class TestWorkerEdges:
    def test_stop_without_session_is_ignored(self):
        worker, _ = minimal_worker()
        worker.mailbox.send(Message(MessageType.STOP, "master"))
        outgoing, cost = worker.step()
        # the worker just proceeds to request a trial
        assert any(m.type is MessageType.REQUEST for m in outgoing)
        assert cost == 0

    def test_put_without_any_session_is_ignored(self):
        worker, ps = minimal_worker()
        worker.mailbox.send(Message(MessageType.PUT, "master", {"key": "k"}))
        worker.step()
        assert not ps.has("k")

    def test_shutdown_terminates_mid_trial(self):
        from repro.core.tune.trial import Trial

        worker, _ = minimal_worker()
        worker.mailbox.send(
            Message(MessageType.TRIAL, "master",
                    {"trial": Trial(params={"lr": 0.05}, trial_id=1)})
        )
        worker.step()  # starts session + trains one epoch
        assert worker.busy
        worker.mailbox.send(Message(MessageType.SHUTDOWN, "master"))
        outgoing, cost = worker.step()
        assert worker.terminated
        assert cost == 0

    def test_warm_start_with_missing_key_falls_back_to_random(self):
        from repro.core.tune.trial import InitKind, Trial

        worker, _ = minimal_worker()
        trial = Trial(params={"lr": 0.05}, trial_id=1,
                      init_kind=InitKind.WARM_START, init_key="ghost/best")
        worker.mailbox.send(Message(MessageType.TRIAL, "master", {"trial": trial}))
        outgoing, cost = worker.step()  # must not raise
        assert cost > 0


class TestStudyEdges:
    def test_zero_workers_yields_empty_report(self):
        conf = HyperConf(max_trials=5)
        ps = ParameterServer()
        master = StudyMaster("s", conf, RandomSearchAdvisor(section71_space()), ps)
        report = run_study(master, [])
        assert report.results == []
        assert report.wall_time == 0.0

    def test_single_trial_study(self):
        conf = HyperConf(max_trials=1, max_epochs_per_trial=3)
        ps = ParameterServer()
        master = StudyMaster("s", conf, RandomSearchAdvisor(section71_space()), ps)
        workers = make_workers(master, SurrogateTrainer(), ps, conf, 3)
        report = run_study(master, workers)
        # with 3 workers racing one budget slot, a couple of in-flight
        # trials may complete, but at least the budgeted one finishes
        assert len(report.results) >= 1

    def test_advisor_exhaustion_shuts_study_down(self):
        conf = HyperConf(max_trials=100, max_epochs_per_trial=3)
        ps = ParameterServer()
        advisor = RandomSearchAdvisor(section71_space(), max_proposals=4)
        master = StudyMaster("s", conf, advisor, ps)
        workers = make_workers(master, SurrogateTrainer(), ps, conf, 2)
        report = run_study(master, workers)
        assert len(report.results) == 4
        assert master.done


class TestHyperConfEdges:
    def test_rejects_zero_trials(self):
        with pytest.raises(ConfigurationError):
            HyperConf(max_trials=0)

    def test_rejects_negative_delta(self):
        with pytest.raises(ConfigurationError):
            HyperConf(delta=-0.1)

    def test_rejects_inverted_alpha_bounds(self):
        with pytest.raises(ConfigurationError):
            HyperConf(alpha0=0.1, alpha_min=0.5)

    def test_alpha_decays_to_floor(self):
        conf = HyperConf(alpha0=1.0, alpha_decay=0.5, alpha_min=0.1)
        assert conf.alpha(0) == 1.0
        assert conf.alpha(1) == 0.5
        assert conf.alpha(100) == pytest.approx(0.1)


class TestGatewayMoreRoutes:
    @pytest.fixture()
    def deployed(self):
        system = Rafiki(seed=2)
        gateway = Gateway(system)
        dataset = make_image_classification(
            name="d", num_classes=2, image_shape=(3, 8, 8),
            train_per_class=8, val_per_class=4, test_per_class=4,
            difficulty=0.3, seed=2,
        )
        system.import_images(dataset)
        job_id = system.create_train_job(
            "t", "ImageClassification", "d",
            hyper=HyperConf(max_trials=2, max_epochs_per_trial=2),
        )
        infer_id = system.create_inference_job(system.get_models(job_id))
        return gateway, infer_id, dataset

    def test_get_inference_status(self, deployed):
        gateway, infer_id, _ = deployed
        response = gateway.handle("GET", f"/inference/{infer_id}")
        assert response.ok
        assert response.body["status"] == "running"

    def test_delete_inference_job(self, deployed):
        gateway, infer_id, dataset = deployed
        response = gateway.handle("DELETE", f"/inference/{infer_id}")
        assert response.ok
        query = gateway.handle(
            "POST", f"/query/{infer_id}", {"img": dataset.test_x[0].tolist()}
        )
        assert query.status == 400

    def test_queries_served_counter_via_gateway(self, deployed):
        gateway, infer_id, dataset = deployed
        for _ in range(3):
            gateway.handle("POST", f"/query/{infer_id}",
                           {"img": dataset.test_x[0].tolist()})
        status = gateway.handle("GET", f"/inference/{infer_id}").body
        assert status["queries_served"] == 3

    def test_method_mismatch_is_404(self, deployed):
        gateway, infer_id, _ = deployed
        assert gateway.handle("PUT", f"/inference/{infer_id}").status == 404

    def test_requests_handled_counter(self, deployed):
        gateway, _, _ = deployed
        requests = telemetry.get_registry().counter("repro_gateway_requests_total")
        before = sum(requests.snapshot().values())
        gateway.handle("GET", "/datasets")
        assert sum(requests.snapshot().values()) == before + 1
