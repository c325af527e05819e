"""The headline chaos acceptance tests: seeded end-to-end scenarios.

One scenario run injects exceptions, drops and latency across tuning,
the parameter server, serving and the gateway; the systems must recover
(right answers, no lost work) AND the recovery trace — the fault log
plus every retry/circuit/recovery counter — must be bit-identical
across two runs with the same seed. The verdict (``check``), the
determinism pair and the CLI gate run once here for every scenario in
the registry; what a particular scenario must have exercised stays
beside the subsystem it kills (test_blockstore, test_sharded_paramserver,
test_tenancy).
"""

import copy
import gc
import json

import pytest

from repro.chaos.scenarios import SCENARIOS, build_default_plan
from repro.chaos.scenarios._core import TRACE_METRIC_PREFIXES
from repro.cli import main

pytestmark = pytest.mark.chaos

every_scenario = pytest.mark.parametrize("name", sorted(SCENARIOS))

# the default scenario is ~2s of work; compute each outcome once
_RUNS = {}


def scenario(seed=0, run=0, name="default"):
    key = (name, seed, run)
    if key not in _RUNS:
        _RUNS[key] = SCENARIOS[name].run(seed)
    return _RUNS[key]


def _lose_a_key(out):
    out["audit"]["keys_lost"] = 1


def _corrupt_a_file(out):
    out["corrupt"] = ["model/ckpt@3"]


def _shed_tenant_b(out):
    out["results"]["isolation"]["b_shed"] = 1


def _drop_a_request(out):
    out["results"]["serve"]["served"] -= 1


#: scenario -> (a way to break a healthy seed-0 ``out``, how check names it)
TAMPERED = {
    "default": (_drop_a_request, "serve requests dropped: 1"),
    "shard-kill": (_lose_a_key, "keys lost: 1"),
    "store-kill": (_corrupt_a_file, "corrupt files: ['model/ckpt@3']"),
    "tenants": (_shed_tenant_b, "tenant-b requests shed: 1"),
}


class TestScenarioVerdicts:
    @every_scenario
    def test_check_passes_at_seed_0(self, name):
        assert SCENARIOS[name].check(scenario(name=name)) == []

    @every_scenario
    def test_check_names_what_a_tampered_run_lost(self, name):
        tamper, failure = TAMPERED[name]
        out = copy.deepcopy(scenario(name=name))
        tamper(out)
        assert SCENARIOS[name].check(out) == [failure]


class TestScenarioCoverage:
    def test_injects_three_fault_kinds_across_three_subsystems(self):
        out = scenario()
        assert out["faults_injected"] >= 3
        assert set(out["kinds_hit"]) == {"exception", "drop", "latency"}
        subsystems = {point.split(".")[0] for point in out["points_hit"]}
        assert len(subsystems) >= 3
        assert {"tune", "paramserver", "serve"} <= subsystems

    def test_tune_phase_recovers_and_completes(self):
        tune = scenario()["results"]["tune"]
        assert tune["trials"] >= 16
        assert tune["best_performance"] > 0.5
        assert tune["recoveries"] > 0
        assert tune["reissued"] > 0

    def test_serve_phase_conserves_requests(self):
        serve = scenario()["results"]["serve"]
        assert serve["requeued"] > 0
        assert serve["dropped"] == 0
        assert serve["served"] == serve["arrived"]
        assert serve["slo_fraction"] >= 0.95

    def test_facade_degrades_and_heals(self):
        facade = scenario()["results"]["facade"]
        # mid-outage queries see 5xx from the gateway (breaker open /
        # replicas dead), then the ensemble heals after the recovery
        # window and queries succeed again
        assert 503 in facade["statuses"] or 504 in facade["statuses"]
        assert facade["statuses"][0] == 200
        assert facade["statuses"][-1] == 200
        assert facade["live_after_recovery"] >= facade["live_during_outage"]
        assert facade["breaker_state"] == "closed"

    def test_trace_covers_retries_circuits_and_recoveries(self):
        counters = scenario()["trace"]["counters"]
        prefixes_seen = {
            prefix
            for prefix in TRACE_METRIC_PREFIXES
            for name in counters
            if name.startswith(prefix)
        }
        assert "repro_chaos_" in prefixes_seen
        assert "repro_retry_" in prefixes_seen
        assert "repro_circuit_" in prefixes_seen


class TestScenarioDeterminism:
    @every_scenario
    def test_same_seed_traces_are_identical(self, name):
        assert scenario(0, run=0, name=name) == scenario(0, run=1, name=name)

    def test_traces_do_not_depend_on_what_ran_before(self):
        """Each scenario alone, then each again after the other
        scenarios and an unrelated study have run in this process."""
        from repro.core.tune import (
            HyperConf, RandomSearchAdvisor, StudyMaster, SurrogateTrainer,
            make_workers, run_study, section71_space,
        )
        from repro.paramserver import ParameterServer

        scenarios = [spec.run for spec in SCENARIOS.values()]
        before = [run(seed=0)["trace"] for run in scenarios]
        conf, ps = HyperConf(max_trials=5), ParameterServer()
        master = StudyMaster("unrelated", conf,
                             RandomSearchAdvisor(section71_space()), ps)
        run_study(master, make_workers(master, SurrogateTrainer(), ps, conf, 2))
        after = [run(seed=0)["trace"] for run in reversed(scenarios)]
        assert after[::-1] == before

    @every_scenario
    def test_different_seed_traces_differ(self, name):
        assert scenario(0, name=name)["trace"] != scenario(7, name=name)["trace"]

    def test_trace_is_json_serialisable(self):
        out = scenario()
        assert json.loads(json.dumps(out["trace"])) == out["trace"]


class TestScenarioLeavesNoCycles:
    @every_scenario
    def test_no_repro_object_is_freed_by_the_collector(self, name):
        """Run with the collector off, a scenario leaves nothing of
        ``repro``'s outside :mod:`repro.telemetry` in a reference cycle:
        what it built is freed by reference counting as it goes."""
        gc.collect()  # what earlier tests left is not this test's
        enabled = gc.isenabled()
        gc.disable()
        try:
            SCENARIOS[name].run(0)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            kept = sorted({
                f"{type(obj).__module__}.{type(obj).__qualname__}" for obj in gc.garbage
                if isinstance(type(obj).__module__, str)
                and type(obj).__module__.startswith("repro")
                and not type(obj).__module__.startswith("repro.telemetry")
            })
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert kept == [], f"reference cycles of {kept}"


class TestDefaultPlan:
    def test_plan_covers_required_points_and_kinds(self):
        plan = build_default_plan(seed=0, flaky_model="resnet-mini")
        points = {rule.point for rule in plan.rules}
        assert {"tune.trial", "paramserver.push", "frontend.dispatch",
                "serve.model.resnet-mini", "gateway.dispatch"} <= points
        kinds = {rule.kind.value for rule in plan.rules}
        assert kinds == {"exception", "drop", "latency"}


class TestCliSmoke:
    def test_chaos_command_runs(self, capsys):
        assert main(["chaos", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "faults injected" in out
        assert "tune:" in out and "serve:" in out and "facade:" in out

    def test_chaos_command_verify_passes(self, capsys):
        assert main(["chaos", "--seed", "0", "--verify"]) == 0
        assert "identical across two same-seed runs" in capsys.readouterr().out

    def test_chaos_command_json_output(self, capsys):
        assert main(["chaos", "--seed", "0", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["seed"] == 0
        assert out["faults_injected"] >= 3
        assert set(out["results"]) == {"tune", "serve", "facade"}

    @every_scenario
    def test_scenario_verifies(self, name, capsys):
        assert main(["chaos", "--scenario", name, "--seed", "0", "--verify"]) == 0
        captured = capsys.readouterr()
        assert "identical across two same-seed runs" in captured.out
        assert captured.err == ""

    @every_scenario
    def test_scenario_json_round_trips(self, name, capsys):
        assert main(["chaos", "--scenario", name, "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(json.dumps(scenario(name=name)))

    def test_failed_check_is_named_and_exits_non_zero(self, monkeypatch, capsys):
        monkeypatch.setattr(SCENARIOS["store-kill"], "check",
                            lambda out: ["dn-0 ate a chunk"])
        assert main(["chaos", "--scenario", "store-kill"]) == 1
        assert "FAIL [store-kill]: dn-0 ate a chunk" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["tenants", "store"])
    def test_folded_verbs_are_gone(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
