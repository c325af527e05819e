"""``tools/trace_calls.py``: the call trace sees pool workers and imports,
and its table of reasons names only defs that exist."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("trace_calls", ROOT / "tools" / "trace_calls.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_pool_study_traces_its_workers_and_its_imports():
    tool = _tool()
    run = tool.Run("tune-real-2", "module", "repro.cli",
                   ("tune", "--real", "--processes", "2", "--trials", "2"))
    defs = tool.definitions()
    reached = {defs[key] for key in tool.trace_runs([run])}
    # only a forked worker runs the worker body; the parent never calls it
    assert "repro.core.tune.pool:_pool_worker" in reached
    # the process-wide registry and tracer are built while repro is imported
    assert "repro.telemetry.registry:MetricsRegistry.__init__" in reached
    assert "repro.telemetry.tracer:Tracer.__init__" in reached
    # and what the study itself runs, in the parent; a decorated def is
    # keyed on its decorator's line, as its code object is
    assert "repro.core.tune.pool:TrialPool.submit" in reached
    assert "repro.core.tune.pool:TrialPool.running" in reached  # a property
    assert "repro.api.gateway:Gateway.__init__" not in reached


def test_every_reason_names_a_def_that_is_not_abstract():
    """A deleted or renamed def leaves no stale reason behind (AST only)."""
    tool = _tool()
    names = set(tool.definitions().values())
    assert sorted(set(tool.REASONS) - names) == []
    assert sorted(set(tool.REASONS) & tool.abstract_defs()) == []
