"""The product times itself one way: spans along a served request.

A span stamps its start and end whether the tracer is on or off, so the
gateway's latency histogram and a pool worker's trial time read their
durations off spans. These tests pin the tree one request leaves, the
nesting of interleaved asyncio requests, the histogram against the span,
and what a disabled tracer keeps (nothing).
"""

from __future__ import annotations

import asyncio

import pytest

from repro import chaos, telemetry
from repro.api.gateway import Gateway, make_query_executor
from repro.chaos import FaultKind, FaultPlan, FaultRule
from repro.core.serve import AsyncServeFrontend, FrontendConfig
from repro.core.system import Rafiki
from repro.data import make_image_classification
from repro.telemetry import ManualClock, Tracer
from serve_helpers import deploy_untrained

pytestmark = pytest.mark.telemetry

DATASET = make_image_classification(
    name="food-1", num_classes=3, image_shape=(3, 8, 8), train_per_class=4,
    val_per_class=2, test_per_class=2, difficulty=0.3, seed=1,
)


def _advancing(clock: ManualClock, seconds: float, fn):
    """``fn`` that moves ``clock`` on by ``seconds`` on every call."""
    def call(*args, **kwargs):
        clock.advance(seconds)
        return fn(*args, **kwargs)
    return call


@pytest.fixture
def deployed(manual_clock):
    """Two untrained replicas behind a gateway. Under the manual clock the
    tenant lookup takes 1/8 s and the replicas' forward passes 1/4 s and
    1/2 s (binary fractions: the sums are exact)."""
    system = Rafiki(seed=5)
    job = deploy_untrained(system, DATASET, replicas=2)
    info = system.get_inference_job(job)
    for network, seconds in zip(info.networks, (0.25, 0.5)):
        network.predict_labels = _advancing(manual_clock, seconds, network.predict_labels)
    system.tenants.resolve = _advancing(manual_clock, 0.125, system.tenants.resolve)
    telemetry.get_tracer().reset()
    return system, Gateway(system), job


def _tree(tracer: Tracer) -> list[tuple]:
    """Each span as ``(name, parent name, tags, duration, self time)``,
    start-ordered, after checking one request id covers the tree."""
    spans = tracer.export()
    by_id = {s["span_id"]: s for s in spans}
    assert len({s["request"] for s in spans}) == 1
    return [
        (s["name"], by_id[s["parent_id"]]["name"] if s["parent_id"] else None,
         s["tags"], s["duration"], s["self"])
        for s in spans
    ]


class TestOneQuery:
    def test_golden_span_tree(self, deployed):
        system, gateway, job = deployed
        model = system.get_inference_job(job).specs[0].model_name
        response = gateway.handle("POST", f"/query/{job}", {"img": DATASET.test_x[0]})
        assert response.status == 200
        assert _tree(telemetry.get_tracer()) == [
            ("gateway.request", None,
             {"route": "/query/{job_id}", "tenant": "default", "status": 200}, 0.875, 0.125),
            ("system.query", "gateway.request", {"job": job, "hits": 0, "misses": 1}, 0.75, 0.0),
            ("system.predict", "system.query", {"model": model, "images": 1}, 0.25, 0.25),
            ("system.predict", "system.query", {"model": model, "images": 1}, 0.5, 0.5),
        ]

    def test_a_cache_hit_predicts_nothing(self, deployed):
        system, gateway, job = deployed
        body = {"img": DATASET.test_x[0]}
        gateway.handle("POST", f"/query/{job}", body)
        telemetry.get_tracer().reset()
        gateway.handle("POST", f"/query/{job}", body)
        assert _tree(telemetry.get_tracer()) == [
            ("gateway.request", None,
             {"route": "/query/{job_id}", "tenant": "default", "status": 200}, 0.125, 0.125),
            ("system.query", "gateway.request", {"job": job, "hits": 1, "misses": 0}, 0.0, 0.0),
        ]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_histogram_observes_span_plus_injected_latency(self, deployed, enabled):
        system, gateway, job = deployed
        tracer = telemetry.get_tracer()
        tracer.enabled = enabled
        chaos.set_plan(FaultPlan([FaultRule("gateway.dispatch", FaultKind.LATENCY,
                                            latency=0.0625)]))
        assert gateway.handle("POST", f"/query/{job}", {"img": DATASET.test_x[0]}).ok
        _, seconds, count = telemetry.get_registry().histogram(
            "repro_gateway_request_seconds").child_state(route="/query/{job_id}")
        assert count == 1
        assert seconds == 0.875 + 0.0625
        if enabled:
            (span,) = [s for s in tracer.spans if s.name == "gateway.request"]
            assert seconds == span.duration + 0.0625
        else:
            assert tracer.spans == []


class TestInterleavedRequests:
    def test_each_request_has_its_own_chain_and_id(self, deployed):
        system, gateway, job = deployed
        frontend = AsyncServeFrontend(
            FrontendConfig(latency=lambda b: 0.001, tau=10.0, batch_sizes=(1, 2)),
            make_query_executor(system, job),
        )
        gateway.attach_frontend(job, frontend)

        async def both():
            async with frontend:
                return await asyncio.gather(*(
                    gateway.handle_async("POST", f"/query/{job}",
                                         {"img": DATASET.test_x[i]}, client_id=f"c{i}")
                    for i in range(2)
                ))

        assert [r.status for r in asyncio.run(both())] == [200, 200]
        spans = telemetry.get_tracer().spans
        requests = [s for s in spans if s.name == "gateway.request"]
        submits = [s for s in spans if s.name == "serve.frontend.submit"]
        assert len(requests) == len(submits) == 2
        assert all(r.parent is None for r in requests)
        assert len({r.request for r in requests}) == 2
        assert {s.parent.span_id for s in submits} == {r.span_id for r in requests}
        for submit in submits:
            assert submit.request == submit.parent.request
            assert submit.wait and submit.self_s == 0.0
            assert submit.tags == {"outcome": "admitted"}
        # The dispatcher serves both requests: its batches are roots of
        # their own, and each query runs under the batch that carried it.
        batches = [s for s in spans if s.name == "serve.frontend.batch"]
        assert sum(b.tags["size"] for b in batches) == 2
        assert all(b.parent is None and b.request not in {r.request for r in requests}
                   for b in batches)
        for query in (s for s in spans if s.name == "system.query"):
            assert query.parent in batches

    def test_a_shed_submit_says_why(self, deployed):
        system, gateway, job = deployed
        frontend = AsyncServeFrontend(
            FrontendConfig(latency=lambda b: 0.001, tau=10.0, batch_sizes=(1,), max_queue=1),
            make_query_executor(system, job),
        )
        gateway.attach_frontend(job, frontend)

        async def three():
            async with frontend:
                return await asyncio.gather(*(
                    gateway.handle_async("POST", f"/query/{job}", {"img": DATASET.test_x[0]})
                    for _ in range(3)
                ))

        statuses = [r.status for r in asyncio.run(three())]
        assert 429 in statuses
        shed = [s.tags for s in telemetry.get_tracer().spans
                if s.name == "serve.frontend.submit" and s.tags["outcome"] == "shed"]
        assert shed and all(tags["reason"] == "queue_full" for tags in shed)
        statuses_429 = [s.tags["status"] for s in telemetry.get_tracer().spans
                        if s.name == "gateway.request" and s.tags["status"] == 429]
        assert len(statuses_429) == len(shed)


class TestSpanObject:
    def test_disabled_tracer_keeps_nothing_but_still_times(self, manual_clock):
        tracer = Tracer(enabled=False)
        with tracer.span("outer") as outer:
            manual_clock.advance(0.5)
            with tracer.span("inner") as inner:
                manual_clock.advance(0.25)
        assert tracer.spans == [] and tracer.dropped == 0
        assert outer.duration == 0.75 and inner.duration == 0.25
        assert inner.parent is None and outer.child_s == 0.0

    def test_self_time_subtracts_children_and_a_wait_has_none(self, manual_clock):
        tracer = Tracer()
        with tracer.span("request") as request:
            manual_clock.advance(0.125)
            with tracer.span("parked", wait=True) as parked:
                manual_clock.advance(0.5)
            with tracer.span("work") as work:
                manual_clock.advance(0.25)
        assert request.duration == 0.875 and request.self_s == 0.125
        assert parked.self_s == 0.0 and work.self_s == 0.25
        assert parked.request == work.request == request.request
        with tracer.span("next") as following:
            pass
        assert following.request != request.request

    def test_ring_keeps_the_newest_and_counts_every_drop(self, manual_clock):
        tracer = Tracer(max_spans=3)
        for index in range(10):
            with tracer.span(f"s{index}"):
                pass
        assert [s.name for s in tracer.spans] == ["s7", "s8", "s9"]
        assert tracer.dropped == 7

    def test_process_tracer_starts_off(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        code = "from repro import telemetry; print(telemetry.get_tracer().enabled)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True, timeout=120)
        assert out.stdout.strip() == "False"


def test_src_times_durations_only_through_the_tracer():
    """Durations timed outside ``Tracer`` in ``src/``: the two reports
    (``profile_network``'s ``c(m, b)`` and the CLI's pool walls) are
    allowed by name; anything else reads its duration off a span."""
    import importlib.util
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("tally", root / "tools" / "tally.py")
    tally = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tally)
    assert tally.hand_timers() == []
