"""Documentation hygiene: every public item carries a docstring."""

import importlib
import inspect
import pkgutil

import repro

PACKAGES = [
    "repro.sim",
    "repro.tensor",
    "repro.data",
    "repro.data.blockstore",
    "repro.data.fs",
    "repro.paramserver",
    "repro.cluster",
    "repro.zoo",
    "repro.core.tune",
    "repro.core.serve",
    "repro.core.serve.frontend",
    "repro.core.serve.loadgen",
    "repro.api",
    "repro.sqlext",
    "repro.sqlext.plan",
    "repro.sqlext.exec",
    "repro.telemetry",
    "repro.chaos",
    "repro.tenancy",
    "repro.utils",
]


def _walk_modules():
    for mod in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(mod.name)


class TestDocstrings:
    def test_every_module_has_a_docstring(self):
        undocumented = [
            module.__name__ for module in _walk_modules() if not module.__doc__
        ]
        assert undocumented == []

    def test_every_exported_class_and_function_documented(self):
        undocumented = []
        for package_name in PACKAGES:
            package = importlib.import_module(package_name)
            for name in getattr(package, "__all__", []):
                obj = getattr(package, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        undocumented.append(f"{package_name}.{name}")
        assert undocumented == []

    def test_public_methods_of_key_classes_documented(self):
        from repro.core.serve import ActorCritic, ReplicaPool, ServeFrontend
        from repro.core.system import Rafiki
        from repro.core.tune import HyperSpace, StudyMaster, TuneWorker
        from repro.paramserver import ParameterServer

        undocumented = []
        for cls in (Rafiki, HyperSpace, StudyMaster, TuneWorker,
                    ParameterServer, ReplicaPool, ActorCritic, ServeFrontend):
            for name, member in inspect.getmembers(cls, inspect.isfunction):
                if name.startswith("_"):
                    continue
                if not inspect.getdoc(member):
                    undocumented.append(f"{cls.__name__}.{name}")
        assert undocumented == []
