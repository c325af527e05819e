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

from repro.core.tune import BayesianAdvisor, Trial, TrialResult, section71_space
space = section71_space()
advisor = BayesianAdvisor(space, rng=np.random.default_rng(0))
for _ in range(advisor.warmup - 1):
    params = advisor.next("w")
    advisor.collect(TrialResult(trial=Trial(params=params), performance=0.5,
                                epochs=1, worker="w"))
advisor.next("w")
stages["warmup"] = scipy_loaded()

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

    def test_a_study_short_of_its_warmup_loads_no_scipy_spatial(self, stages):
        """Only a process that fits a GP pays for the kernel's ``cdist``."""
        assert not any(m.startswith("scipy.spatial") for m in stages["warmup"])
        assert "scipy.spatial.distance" in stages["gp"]

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


def _unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of each module-level import ``source`` never uses.

    A name is used when the module loads it anywhere, lists it in
    ``__all__`` or names it inside a string annotation. Imports under
    ``if TYPE_CHECKING:`` count like any other; ``__future__`` ones are
    not names.
    """
    import ast

    tree = ast.parse(source)
    imported = {}  # name -> line
    blocks = [tree.body]
    while blocks:
        for node in blocks.pop():
            if isinstance(node, ast.If):  # ``if TYPE_CHECKING:`` and kin
                blocks += [node.body, node.orelse]
            elif isinstance(node, ast.Try):
                blocks += [node.body, node.orelse, node.finalbody]
                blocks += [handler.body for handler in node.handlers]
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.Assign, ast.AugAssign)) and "__all__" in {
            getattr(target, "id", None)
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        }:
            used.update(elt.value for elt in node.value.elts)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.update(
                    name.id for name in ast.walk(ast.parse(node.value, mode="eval"))
                    if isinstance(name, ast.Name)
                )
    return sorted((line, name) for name, line in imported.items() if name not in used)


class TestNoUnusedImports:
    def test_every_module_level_import_is_used(self):
        from pathlib import Path

        import repro

        root = Path(repro.__file__).parent
        unused = [
            f"{path.relative_to(root)}:{line} {name}"
            for path in sorted(root.rglob("*.py"))
            for line, name in _unused_imports(path.read_text(encoding="utf-8"))
        ]
        assert unused == []

    @pytest.mark.parametrize("source, expected", [
        ("import os\n", [(1, "os")]),
        ("import os.path\nos.sep\n", []),
        ("from a import b as c\nb = 1\n", [(1, "c")]),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from a import b, c\n__all__ = ['b']\n__all__ += ['c']\n", []),
        ("from __future__ import annotations\n", []),
        ("from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from a import B\n"
         "def f(x: 'B') -> None: ...\n", []),
        ("from a import B\ndef f(x: 'list[B]'): ...\n", []),
    ])
    def test_finds_what_it_should(self, source, expected):
        assert _unused_imports(source) == expected
