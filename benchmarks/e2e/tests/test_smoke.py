"""Smoke checks for the e2e benchmark (not part of tier-1).

    python3 -m pytest benchmarks/e2e/tests -q

Runs every workload at 1/20 of the work in a subprocess, exactly as the
driver would, and checks the result line against ``BENCHMARK.json``;
plus unit checks of the calibration arithmetic and the span accounting.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
E2E = os.path.dirname(HERE)
ROOT = os.path.dirname(os.path.dirname(E2E))
sys.path.insert(0, E2E)

import calib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def invoke(*extra: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    command = spec()["command"] + list(extra)
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


class TestContract:
    def test_benchmark_json_shape(self):
        data = spec()
        assert set(data) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
        assert data["paths"] == ["benchmarks/e2e"]
        assert 1 <= data["run_seconds"] <= 60
        assert 2 <= len(data["workloads"]) <= 8
        names = [w["name"] for w in data["workloads"]]
        names += [m["name"] for m in data["end_to_end"] + data["per_layer"]]
        assert len(names) == len(set(names))
        assert all(NAME.match(name) for name in names)
        for workload in data["workloads"]:
            assert set(workload) == {"name", "why"}
            assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        for metric in data["end_to_end"]:
            assert set(metric) == {"name", "unit", "better", "bound"}
            assert 0 < metric["bound"] <= 0.25
        for metric in data["per_layer"]:
            assert set(metric) == {"name", "unit", "better"}
        for metric in data["end_to_end"] + data["per_layer"]:
            assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")

    def test_metric_lists_match_the_runner(self):
        data = spec()
        assert [w["name"] for w in data["workloads"]] == list(run.WORKLOADS)
        assert {m["name"]: m["unit"] for m in data["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in data["per_layer"]} == run.PER_LAYER

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in spec()["end_to_end"]}
        assert bounds["setup_s"] == max(bounds.values())

    def test_fails_without_the_program(self, tmp_path):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = invoke("--workload", "ckpt_store", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=str(tmp_path))
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_end_to_end(workload):
    result = result_of(invoke("--workload", workload, "--seed", "3", "--seconds", "10",
                              "--trace", "0", "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == run.END_TO_END[name] and entry["value"] > 0


@pytest.mark.parametrize("workload", ["serve_unique", "ckpt_store"])
def test_smoke_traced(workload):
    result = result_of(invoke("--workload", workload, "--seed", "3", "--seconds", "10",
                              "--trace", "1", "--smoke"))
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    assert 0.9 <= metrics["trace.coverage_share"]["value"] <= 1.0
    assert metrics["trace.spans"]["value"] > 0
    crossed = "api.gateway.requests" if workload == "serve_unique" else "ps.put.calls"
    assert metrics[crossed]["value"] > 0


def session_members(sid: int) -> list[str]:
    """Command lines of the live processes in session ``sid``."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{pid}/cmdline") as handle:
                command = handle.read().replace("\0", " ")
        except OSError:
            continue  # ended while we were looking
        if int(fields[3]) == sid:
            members.append(f"{pid} [{fields[0]}] {command}")
    return members


def test_traced_tune_leaves_no_process_behind():
    """The pool study starts workers and a resource tracker: all must be gone."""
    command = spec()["command"] + ["--workload", "tune_costudy", "--seed", "3",
                                   "--seconds", "10", "--trace", "1", "--smoke"]
    done = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    output, _ = done.communicate(timeout=180)
    assert done.returncode == 0, output[-2000:]
    result = json.loads(output.strip().splitlines()[-1])
    assert result["metrics"]["tune.pool.bit_identical"]["value"] == 1.0
    assert session_members(done.pid) == []


def test_same_seed_same_outputs():
    """Two processes, one seed: identical output fingerprints."""
    prints = []
    for _ in range(2):
        result_of(invoke("--workload", "sql_foodlog", "--seed", "5", "--seconds", "10",
                         "--trace", "0", "--smoke"))
        with open(os.path.join(E2E, "out", "sql_foodlog-seed5-trace0.json")) as handle:
            record = json.load(handle)
        prints.append(record["output_fingerprint"])
        assert record["machine"]["cpu_count"] and record["machine"]["numpy"]
    assert prints[0] == prints[1]


class TestCalClock:
    def clock_with(self, ticks, mem_share=calib.DEFAULT_MEM_SHARE):
        """A clock whose ticks were (at, compute slow-down, memory slow-down)."""
        clock = calib.CalClock(mem_share)
        clock.tick_at = [float(at) for at, _, _ in ticks]
        clock.tick_began = [at - 0.02 for at in clock.tick_at]
        clock.tick_compute = [c * calib.REF_COMPUTE_S for _, c, _ in ticks]
        clock.tick_memory = [m * calib.REF_MEMORY_S for _, _, m in ticks]
        return clock

    def test_scale_is_one_over_median_slowdown_of_bracketing_ticks(self):
        # machine at reference speed, then half speed from t=10 on
        ticks = [(t, 1.0, 1.0) for t in range(10)] + [(t, 2.0, 2.0) for t in range(10, 20)]
        clock = self.clock_with(ticks)
        assert clock.scale_between(4.2, 4.8) == pytest.approx(1.0)
        assert clock.scale_between(14.2, 14.8) == pytest.approx(0.5)

    def test_one_slow_tick_does_not_move_the_scale(self):
        ticks = [(t, 1.0, 1.0) for t in range(10)]
        ticks[5] = (5, 4.5, 4.5)
        assert self.clock_with(ticks).scale_between(4.2, 4.8) == pytest.approx(1.0)

    def test_mem_share_blends_the_two_parts(self):
        # compute twice as slow, memory untouched
        ticks = [(t, 2.0, 1.0) for t in range(10)]
        assert self.clock_with(ticks, 0.0).scale_between(4.2, 4.8) == pytest.approx(0.5)
        assert self.clock_with(ticks, 1.0).scale_between(4.2, 4.8) == pytest.approx(1.0)
        assert self.clock_with(ticks, 0.75).scale_between(4.2, 4.8) == pytest.approx(0.8)

    def test_steady_seconds_prices_each_kind_at_its_median(self):
        clock = self.clock_with([(t, 1.0, 1.0) for t in range(10)])
        for kind, raw in [("a", 1.0), ("a", 1.0), ("a", 9.0), ("b", 2.0)]:
            clock.segments.append(calib.Segment("p", kind, 0.0, raw, ops=1))
        assert clock.steady_seconds("p") == pytest.approx(3 * 1.0 + 2.0)
        assert clock.rate("p") == pytest.approx(4 / 5.0)

    def test_latency_p50_is_the_slowest_kinds_median(self):
        clock = self.clock_with([(t, 1.0, 1.0) for t in range(10)])
        clock.segments.append(calib.Segment("p", "fast", 0.0, 1.0, latencies=[1, 1, 1, 1]))
        clock.segments.append(calib.Segment("p", "slow", 0.0, 1.0, latencies=[5, 7, 6]))
        assert clock.latency_p50("p") == pytest.approx(6)

    def test_ticks_inside_an_interval_are_counted_once(self):
        clock = self.clock_with([(t, 1.0, 1.0) for t in range(10)])
        assert clock.tick_seconds_within(2.5, 5.5) == pytest.approx(3 * 0.02)
        assert clock.tick_seconds_within(2.99, 3.5) == pytest.approx(0.0)

    def test_lap_splits_without_losing_time(self):
        clock = calib.CalClock()
        clock.begin("p", "x")
        clock.lap("y")
        clock.end()
        first, second = clock.phase("p")
        assert (first.kind, second.kind) == ("x", "y")
        assert first.end <= second.start

    def test_blas_is_pinned(self):
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
        assert os.environ["OMP_NUM_THREADS"] == "1"


class TestSpans:
    def tracer(self):
        tracer = spans.Tracer()
        tracer.enter("primary", timed=True)
        return tracer

    def test_self_time_is_span_minus_children(self):
        tracer = self.tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("park", wait=True):
                pass
        tracer.finish(calib.CalClock())
        outer, inner, park = tracer.spans
        assert inner.parent == 0 and park.parent == 0
        assert outer.self_raw_s == pytest.approx(outer.raw_s - inner.raw_s - park.raw_s)
        assert park.self_raw_s == 0.0
        assert tracer.check() == []

    def test_check_reports_children_exceeding_parent(self):
        tracer = self.tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.spans[1].end = tracer.spans[0].end + 1.0
        tracer.finish(calib.CalClock())
        assert any("exceed" in fault or "escapes" in fault for fault in tracer.check())

    def test_wrap_is_instance_level_and_idempotent(self):
        class Thing:
            def work(self):
                return 7

        tracer, thing, other = self.tracer(), Thing(), Thing()
        tracer.wrap(thing, "work", "thing.work")
        tracer.wrap(thing, "work", "thing.work")
        assert thing.work() == 7 and other.work() == 7
        assert tracer.count("thing.work") == 1
        assert "work" not in vars(other)

    def test_counts_only_in_timed_phases(self):
        tracer = self.tracer()
        tracer.add("n")
        tracer.enter("verify", timed=False)
        tracer.add("n")
        assert tracer.counts["n"] == 1
