"""Tests for the top-level package surface."""

import pytest


class TestLazySdkExports:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_figure2_symbols_resolve(self):
        import repro

        for name in ("import_images", "HyperConf", "Train", "Inference",
                     "get_models", "query", "connect"):
            assert callable(getattr(repro, name))

    def test_rafiki_facade_reachable(self):
        import repro

        assert repro.Rafiki.__name__ == "Rafiki"

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError, match="no attribute"):
            repro.definitely_not_a_symbol


_STARTUP_PROBE = """
import importlib, json, pkgutil, sys

import numpy as np

def scipy_loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.ispkg:
        importlib.import_module(info.name)
import repro.api.sdk, repro.cli, repro.core.system
stages = {"import": scipy_loaded()}

from repro.core.tune.advisors.gp import GaussianProcess, expected_improvement
rng = np.random.default_rng(0)
gp = GaussianProcess().fit(rng.random((8, 3)), rng.random(8))
mean, std = gp.predict(rng.random((4, 3)))
expected_improvement(mean, std, best=0.5)
stages["gp"] = scipy_loaded()

from repro.zoo import EnsembleAccuracyModel
EnsembleAccuracyModel(("inception_v3", "inception_v4"), num_examples=100)
stages["ensemble"] = scipy_loaded()
print(json.dumps(stages))
"""


class TestStartupImportsNoScipy:
    """Importing the product loads numpy and the standard library only;
    scipy loads where it is first used, and ``scipy.stats`` never."""

    @pytest.fixture(scope="class")
    def stages(self):
        import json
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", _STARTUP_PROBE], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": path}, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout.splitlines()[-1])

    def test_importing_every_package_loads_no_scipy(self, stages):
        assert stages["import"] == []

    def test_gp_loads_linalg_and_special_not_stats(self, stages):
        loaded = set(stages["gp"])
        assert {"scipy.linalg", "scipy.special"} <= loaded
        assert not any(m.startswith("scipy.stats") for m in loaded)

    def test_ensemble_panel_does_not_load_stats(self, stages):
        assert not any(m.startswith("scipy.stats") for m in stages["ensemble"])

    def test_no_source_file_imports_scipy_stats(self):
        import ast
        from pathlib import Path

        import repro

        offenders = []
        for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module:
                    modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                if any(m == "scipy.stats" or m.startswith("scipy.stats.") for m in modules):
                    offenders.append(f"{path.name}:{node.lineno}")
        assert offenders == []
