"""The shared perf-bench runner (``benchmarks/_perf.py``) on a toy spec."""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks"))

import _perf  # noqa: E402


def toy_spec(drift: bool = False, failures: tuple[str, ...] = ()):
    """A spec whose ``simulated`` section optionally differs run to run."""
    runs = []

    def run(smoke: bool, seed: int) -> dict:
        runs.append(smoke)
        return {
            "simulated": {"seed": seed, "n": len(runs) if drift else 4},
            "wall": {"seconds": 0.001 * len(runs)},
        }

    return SimpleNamespace(
        __file__="bench_perf_toy.py",
        run=run,
        check=lambda payload: list(failures),
        table=lambda payload: f"n={payload['simulated']['n']}",
        runs=runs,
    )


@pytest.fixture
def bench_root(tmp_path, monkeypatch):
    monkeypatch.setattr(_perf, "ROOT", str(tmp_path))
    return tmp_path


def test_full_run_writes_two_sections_and_a_machine_stamp(bench_root, capsys):
    spec = toy_spec()
    assert _perf.main(spec, argv=["--seed", "5"]) == 0
    assert spec.runs == [False, False]  # the same-seed re-run
    payload = json.loads((bench_root / "BENCH_toy.json").read_text())
    assert sorted(payload) == ["machine", "simulated", "wall"]
    assert sorted(payload["machine"]) == ["cpu_count", "numpy", "platform", "python"]
    assert payload["simulated"] == {"seed": 5, "n": 4}
    table = bench_root / "benchmarks" / "results" / "perf_toy.txt"
    assert table.read_text() == "n=4\n"
    assert "n=4" in capsys.readouterr().out


def test_smoke_never_rewrites_the_committed_baseline(bench_root):
    baseline = bench_root / "BENCH_toy.json"
    baseline.write_text("committed\n")
    assert _perf.main(toy_spec(), argv=["--smoke"]) == 0
    assert baseline.read_text() == "committed\n"
    assert not (bench_root / "benchmarks").exists()
    assert _perf.main(toy_spec(), argv=[]) == 0
    assert json.loads(baseline.read_text())["simulated"]["n"] == 4


def test_same_seed_divergence_fails_the_spec(bench_root, capsys):
    assert _perf.main(toy_spec(drift=True), argv=["--smoke"]) == 1
    assert "differs across two same-seed runs" in capsys.readouterr().err


def test_failing_check_fails_the_spec(bench_root, capsys):
    assert _perf.main(toy_spec(failures=("gate broke",)), argv=["--smoke"]) == 1
    assert "FAIL [toy]: gate broke" in capsys.readouterr().err
