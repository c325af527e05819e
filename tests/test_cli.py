"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tune_defaults(self):
        args = build_parser().parse_args(["tune"])
        assert args.trials == 60
        assert args.advisor == "random"
        assert not args.collaborative

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_profiles(self, capsys):
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        assert "mobilenet_v1" in out
        assert "nasnet_large" in out

    def test_ensemble(self, capsys):
        assert main(["ensemble", "--examples", "4000"]) == 0
        out = capsys.readouterr().out
        assert "inception_resnet_v2" in out
        assert out.count("\n") >= 16  # 15 subsets + header

    def test_tune_study(self, capsys):
        assert main(["tune", "--trials", "6", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        assert "Study with random search" in out
        assert "best accuracy" in out

    def test_tune_costudy_bayesian(self, capsys, monkeypatch):
        """Enough trials to get past the advisor's 8 warm-up proposals, so
        the GP is fitted and queried."""
        from repro.core.tune.advisors.gp import GaussianProcess

        predict = GaussianProcess.predict
        fits = []
        monkeypatch.setattr(GaussianProcess, "predict",
                            lambda gp, x: fits.append(len(gp._x)) or predict(gp, x))
        assert main([
            "tune", "--trials", "14", "--advisor", "bayesian", "--collaborative",
        ]) == 0
        assert "CoStudy with bayesian" in capsys.readouterr().out
        assert fits and min(fits) >= 8

    def test_tune_real_pool_reuse(self, capsys):
        """``--pool-reuse`` runs the study twice on one pool and reads
        each wall off a span covering the study."""
        assert main(["tune", "--real", "--processes", "2", "--pool-reuse",
                     "--trials", "4", "--workers", "2"]) == 0
        out = capsys.readouterr().out
        for label in ("cold", "warm"):
            assert re.search(rf"^{label} study on reused pool: \d+\.\d{{3}}s wall-clock$",
                             out, re.MULTILINE)
        assert "reports bit-identical across pool reuse: True" in out

    def test_demo(self, capsys):
        assert main(["demo", "--classes", "2", "--trials", "2"]) == 0
        assert "test accuracy" in capsys.readouterr().out

    def test_sql(self, capsys):
        assert main(["sql"]) == 0
        out = capsys.readouterr().out
        assert "GROUP BY" in out
        assert "UDF calls" in out

    def test_sql_explain_analyses_the_run(self, capsys):
        """Each plan line once, annotated from its node span: the top
        node's rows are the printed rows, the UDF arguments sum to the
        query's UDF calls."""
        import re

        from repro.sqlext.plan import compile_plan, explain_plan

        sql = ("SELECT age_band(age) AS band, count(*) AS n FROM foodlog "
               "WHERE age > 30 GROUP BY band ORDER BY n DESC LIMIT 5")
        assert main(["sql", "--executor", "planned", "--explain", "--query", sql]) == 0
        out = capsys.readouterr().out.splitlines()
        annotation = re.compile(r"(.*)  \[rows (\d+), \d+\.\d{3} ms, UDF args (\d+), "
                                r"dispatches (\d+), cache hits (\d+)\]$")
        analysed = [m.groups() for m in map(annotation.match, out) if m]
        plan = explain_plan(compile_plan(sql)).splitlines()
        assert [line for line, *_ in analysed] == plan
        assert not set(plan) & set(out)  # no line printed bare
        rows = [line for line in out if line.startswith("  (")]
        assert int(analysed[0][1]) == len(rows) > 0
        calls, batches, hits = map(int, re.search(
            r"\[planned\] UDF calls: (\d+), batches: (\d+), cache hits: (\d+)",
            "\n".join(out)).groups())
        assert sum(int(c) for _, _, c, _, _ in analysed) == calls > 0
        assert sum(int(b) for _, _, _, b, _ in analysed) == batches
        assert sum(int(h) for *_, h in analysed) == hits

    def test_telemetry_snapshot_covers_every_subsystem(self, capsys):
        import json

        assert main(["telemetry"]) == 0
        snap = json.loads(capsys.readouterr().out)
        names = " ".join(
            list(snap["counters"]) + list(snap["gauges"]) + list(snap["histograms"])
        )
        for prefix in ("repro_tune_", "repro_serve_", "repro_paramserver_",
                       "repro_cluster_", "repro_gateway_"):
            assert prefix in names, f"snapshot missing {prefix} metrics"

    def test_telemetry_snapshot_shows_the_study_keys(self, capsys):
        # Regression: the study ran on a server of its own, and the
        # facade's server, built later, took over the keys gauge (0).
        import json

        assert main(["telemetry", "--format", "json"]) == 0
        keys = json.loads(capsys.readouterr().out)["gauges"]["repro_paramserver_keys"]
        assert keys["values"][""] >= 1

    def test_telemetry_prometheus_format(self, capsys):
        assert main(["telemetry", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_gateway_requests_total counter" in out
        assert 'le="+Inf"' in out

    def test_tune_with_telemetry_flag(self, capsys):
        assert main(["tune", "--trials", "4", "--workers", "2", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "best accuracy" in out
        assert "repro_tune_trials_started_total" in out
