"""Print the size tallies CHANGES.md quotes: lines, names, options, globals.

Per package under ``src/repro`` (its own modules; sub-packages have
their own row): source lines, ``len(__all__)``, and the constructor
parameters of every class (or capitalised constructor function) that
the ``__all__`` of the package or of one of its modules lists, each
counted once; then every module-level mutable global in ``src/`` — a
name some function rebinds through ``global``, or one bound to a
``ContextVar`` / ``itertools.count`` at module level; then the CLI's
verbs and their flags, read off ``repro.cli.build_parser()``; then the
telemetry record sites in ``src/`` by kind, read off the AST — a counter
``inc``, histogram ``observe`` or gauge ``set`` on a family looked up per
event (``registry.counter(...).inc(...)``, "lookup per event"; the
functions that do it are listed) against children bound once from a
lookup or from a family the owner builds (``telemetry.Counter``/
``Histogram``/``Gauge(...)``; ``.labels(...)``), and gauge ``set_function``
readers — and the ``_publish*`` methods and their call sites;
then the quota write sites outside ``repro.tenancy``: calls of
``charge``/``release`` on a ``tenants`` or ``ledger`` receiver; then the
chunk reference write sites: ``incref``/``decref``/``release`` on a
``store`` or ``blocks`` receiver; then the JSON round-trip sites in
``src/``: ``json.loads(json.dumps(...))`` calls; then the reads of a raw
request body in ``repro.api.gateway`` outside the route tables (``body[...]``,
``body.get(...)``, ``... in body``) by function; then the durations
``src/`` times outside the ``Tracer`` (a clock read minus a name bound to
one; the two printed reports, ``profile_network`` and the CLI's pool walls,
are allowed by name); then the product span sites per package: each
``.span(...)`` call outside ``repro.telemetry``, its name (a literal, or
the names of the module-level dict it picks one from) and ``file:line``;
then the owner registrations held strongly: a
``set_function``/``govern``/``add_reader``/``on_recovery`` call in ``src/``
whose reader holds its owner (see ``strong_registrations``); last, the public names
in ``src/repro`` (module-level functions and classes, and methods) that
no other module names: no identifier, attribute or import of that name
in any ``.py`` file under ``src/``, ``benchmarks/``, ``examples/`` or
``tools/``, the defining module and the package ``__init__`` files aside.
They are printed as two lists: the names their own module does not name
either, which only tests reach (candidates for deletion), and the names
only their own module uses, which run (candidates for an underscore).
A third and a fourth list are their knob counterparts: the defaulted
parameters of public functions and methods (a public class's ``__init__``
under the class name) that no call in ``src/``, ``benchmarks/``,
``examples/``, ``tools/`` or ``tests/`` passes, by keyword or by position
(candidates for a constant), and those only calls under ``tests/`` pass
(candidates for a constant a test overrides on the instance).
Calls are matched by name; a ``*``/``**`` splat passes everything, and so
may any call of a function handed on as a value (outside ``tests/``).
A fifth list does the same for the fields of public dataclasses in
``src/repro``: each defaulted field of the generated ``__init__`` (not
``init=False``) that no call of its class's own name sets, by keyword or
by position, and no ``dataclasses.replace`` sets by keyword, and those
only calls under ``tests/`` set. A subclass's generated ``__init__`` is
not followed to its base (``Knob``'s hooks, which ``RangeKnob`` and
``CategoricalKnob`` take, are listed for that reason). State fields are
left out: a field whose name ``src/`` assigns, or mutates in place
(``append``, ``[k] = ...``), outside ``__init__``/``__post_init__`` is a
record or a counter, not a setting.
A sixth list is the state nothing reads: each attribute a class in
``src/`` assigns on ``self`` (``+=`` included), and each field of a
dataclass (whoever writes it, its generated ``__init__`` included), whose
name no ``.py`` file
under ``src/``, ``benchmarks/``, ``examples/`` or ``tools/`` reads, as an
attribute of anything or as a string constant (``getattr``), split into
the attributes nothing reads and those only ``tests/`` read.

    python tools/tally.py [--classes]

Printed for the record (CI runs it after the tests), never gated.
``--classes`` lists every exported class with its parameter count
instead of only the per-package totals.
"""

from __future__ import annotations

import argparse
import ast
import importlib
import inspect
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src"
CALLER_DIRS = ("src", "benchmarks", "examples", "tools")
MUTABLE_FACTORIES = {"ContextVar", "count"}


def lines(package: Path) -> int:
    return sum(
        len(f.read_text(encoding="utf-8").splitlines()) for f in package.glob("*.py")
    )


def constructors(package: Path) -> dict[str, int]:
    """Parameter count of each class / capitalised constructor the package
    exports: from the ``__all__`` of its ``__init__`` and of each of its
    own modules, each object counted once however many list it."""
    dotted = ".".join(package.relative_to(ROOT).parts)
    modules = [dotted] + [
        f"{dotted}.{path.stem}" for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    ]
    out, seen = {}, set()
    for module in map(importlib.import_module, modules):
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if id(obj) in seen or not (
                inspect.isclass(obj) or (inspect.isfunction(obj) and name[0].isupper())
            ):
                continue
            seen.add(id(obj))
            try:
                out[name] = len(inspect.signature(obj).parameters)
            except ValueError:  # an exception class with no __init__ of its own
                out[name] = 0
    return out


def mutable_globals(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = {
        name
        for node in ast.walk(tree) if isinstance(node, ast.Global)
        for name in node.names
    }
    # A module's own ``threading.local`` subclasses make per-thread globals.
    factories = MUTABLE_FACTORIES | {
        node.name for node in tree.body if isinstance(node, ast.ClassDef)
        and any(getattr(base, "attr", getattr(base, "id", "")) == "local" for base in node.bases)
    }
    for node in tree.body:
        value = getattr(node, "value", None)
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(value, ast.Call):
            func = value.func
            if getattr(func, "attr", getattr(func, "id", "")) in factories:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(t.id for t in targets if isinstance(t, ast.Name))
    return sorted(names)


METRIC_KINDS = {"counter", "gauge", "histogram"}
RECORD_METHODS = {"inc", "dec", "set", "observe", "observe_many"}
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _metric_kind(node) -> tuple[str, bool] | None:
    """``(kind, built)`` when ``node`` is ``x.<kind>(...)``, a registry lookup
    (``built`` false), or ``telemetry.Counter``/``Histogram``/``Gauge(...)``,
    a family its owner builds."""
    func = getattr(node, "func", None)
    if isinstance(node, ast.Call) and isinstance(func, ast.Attribute):
        if func.attr.lower() in METRIC_KINDS:
            return func.attr.lower(), func.attr[0].isupper()
    return None


def _scoped(node, scope: tuple[str, ...] = ()):
    """Every node under ``node`` with the def/class names enclosing it."""
    for child in ast.iter_child_nodes(node):
        inner = (*scope, child.name) if isinstance(child, SCOPES) else scope
        yield child, inner
        yield from _scoped(child, inner)


def telemetry_sites(path: Path) -> tuple[Counter, list[str]]:
    """Record sites by kind (``gauge.set_function``, ...), ``_publish*``
    defs/calls, and the function of each per-event lookup site."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    out: Counter = Counter()
    lookups: list[str] = []
    # names a metric family was bound to: ``sizes = registry.histogram(...)``
    bound = {
        target.id: _metric_kind(node.value)
        for node in ast.walk(tree) if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and _metric_kind(node.value)
    }
    for node, scope in _scoped(tree):
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_publish"):
            out["_publish* definitions"] += 1
        func = getattr(node, "func", None)
        if not (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)):
            continue
        if func.attr.startswith("_publish"):
            out["_publish* call sites"] += 1
        receiver = func.value
        kind, built = _metric_kind(receiver) or (
            bound.get(receiver.id) if isinstance(receiver, ast.Name) else None
        ) or (None, False)
        if kind and func.attr == "labels":
            out[f"{kind}.labels (bound once)"] += 1
        elif kind and func.attr == "set_function":
            out["gauge.set_function"] += 1
        elif kind and func.attr in RECORD_METHODS:
            out[f"{kind}.{func.attr} ({'owner-built' if built else 'lookup per event'})"] += 1
            if not built:
                lookups.append(".".join(scope))
    return out, lookups


def lookup_sites() -> list[str]:
    """``module:function`` of every per-event lookup record site in ``src/``."""
    return [
        f"{path.relative_to(ROOT)}:{function}"
        for path in sorted(ROOT.rglob("*.py"))
        for function in telemetry_sites(path)[1]
    ]


QUOTA_RECEIVERS = {"tenants", "ledger"}
QUOTA_WRITES = {"charge", "release"}
REFERENCE_RECEIVERS = {"store", "blocks"}
REFERENCE_WRITES = {"incref", "decref", "release"}


def write_calls(path: Path, methods: set[str], receivers: set[str]) -> int:
    """``<...>.<receiver>.<method>(...)``-shaped calls: an owner pushing state."""
    count = 0
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        func = getattr(node, "func", None)
        if isinstance(node, ast.Call) and isinstance(func, ast.Attribute):
            receiver = func.value
            name = getattr(receiver, "attr", getattr(receiver, "id", None))
            count += func.attr in methods and name in receivers
    return count


def quota_writes(path: Path) -> int:
    """``<...>.tenants.charge(...)``: an owner pushing usage to the ledger."""
    return write_calls(path, QUOTA_WRITES, QUOTA_RECEIVERS)


def reference_writes(path: Path) -> int:
    """``<...>.store.incref(...)``: a chunk reference pushed to the block
    store (inside the store itself, ``self.release(...)`` counts too)."""
    receivers = REFERENCE_RECEIVERS | ({"self"} if path.name == "blockstore.py" else set())
    return write_calls(path, REFERENCE_WRITES, receivers)


def _is_json_call(node, name: str) -> bool:
    """``node`` is ``json.<name>(...)``."""
    func = getattr(node, "func", None)
    return (
        isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
        and func.attr == name and getattr(func.value, "id", None) == "json"
    )


def json_round_trips(path: Path) -> int:
    """``json.loads(json.dumps(...))`` calls: a value copied through JSON text."""
    return sum(
        _is_json_call(node, "loads") and bool(node.args)
        and _is_json_call(node.args[0], "dumps")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
    )


#: names a request body goes by in the gateway.
BODY_NAMES = {"body", "payload"}
#: the functions that read a whole request body: the table reader and
#: the JSON check before routing.
BODY_READERS = {"_parse", "_json_object"}


def _is_body(node) -> bool:
    return getattr(node, "id", getattr(node, "attr", None)) in BODY_NAMES


def raw_body_reads() -> list[str]:
    """``module:function`` of each read of a raw request body in the
    gateway outside the route tables: ``body[...]``, ``body.get(...)`` or
    ``... in body`` on a name or attribute ``body`` or ``payload``, in any
    function but the ``BODY_READERS``; one entry per read."""
    out = []
    for path in [ROOT / "repro" / "api" / "gateway.py"]:
        for node, scope in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            read = (
                (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                 and _is_body(node.value))
                or (isinstance(node, ast.Call) and isinstance(func, ast.Attribute)
                    and func.attr == "get" and _is_body(func.value))
                or (isinstance(node, ast.Compare) and _is_body(node.comparators[-1])
                    and isinstance(node.ops[-1], (ast.In, ast.NotIn)))
            )
            if read and not BODY_READERS & set(scope):
                out.append(f"{path.relative_to(ROOT)}:{'.'.join(scope)}")
    return out


#: calls that read a clock: ``clock.now()``, ``time.perf_counter()``, a
#: ``clock()`` handed in as a value, ...
CLOCK_READS = {"now", "perf_counter", "monotonic", "process_time", "clock"}
#: durations that are reports, not traces: ``profile_network`` measures
#: ``c(m, b)`` itself.
TIMED_REPORTS = {"core/serve/profiler.py:profile_network"}


def _is_clock_read(node) -> bool:
    func = getattr(node, "func", None)
    name = getattr(func, "attr", getattr(func, "id", None))
    return isinstance(node, ast.Call) and name in CLOCK_READS


def hand_timers() -> list[str]:
    """``module:function`` of each duration ``src/`` times outside
    ``Tracer``: a clock read minus a local name bound to a clock read in
    the same function, the ``TIMED_REPORTS`` aside; one entry per
    difference. A duration the product needs comes off a span instead."""
    out = []
    for path in sorted(ROOT.rglob("*.py")):
        where = str(path.relative_to(ROOT / "repro"))
        if where == "telemetry/tracer.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            started = {
                target.id for node in ast.walk(function)
                if isinstance(node, ast.Assign) and _is_clock_read(node.value)
                for target in node.targets if isinstance(target, ast.Name)
            }
            site = f"{where}:{function.name}"
            out += [
                site for node in ast.walk(function)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and _is_clock_read(node.left) and getattr(node.right, "id", None) in started
                and site not in TIMED_REPORTS
            ]
    return out


def _span_names(node, constants: dict) -> str:
    """A span call's name: its literal, or the values of the module-level
    dict a subscript picks it from, or else its source text."""
    if isinstance(node, ast.Constant):
        return node.value
    table = constants.get(getattr(getattr(node, "value", None), "id", None))
    if isinstance(node, ast.Subscript) and isinstance(table, ast.Dict):
        return "|".join(value.value for value in table.values)
    return ast.unparse(node)


def span_sites() -> dict[str, list[str]]:
    """Per package, ``name (file:line)`` of each product span site: a
    ``.span(...)`` call in ``src/`` outside ``repro.telemetry``."""
    out: dict[str, list[str]] = {}
    for path in sorted(ROOT.rglob("*.py")):
        where = path.relative_to(ROOT)
        if where.parts[1] == "telemetry":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        constants = {
            target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)
        }
        calls = sorted(
            (node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "span" and node.args),
            key=lambda node: node.lineno)
        for node in calls:
            out.setdefault(".".join(where.parent.parts), []).append(
                f"{_span_names(node.args[0], constants)} ({where.relative_to('repro')}"
                f":{node.lineno})")
    return dict(sorted(out.items()))


#: owner registrations: method -> position of the owner argument; the
#: reader is the argument after it (``repro.utils.owners``).
OWNER_REGISTRATIONS = {"set_function": 0, "govern": 1, "add_reader": 0, "on_recovery": 0}


def strong_registrations() -> list[str]:
    """``module:function`` of each owner registration in ``src/`` whose
    reader holds its owner: a call with no owner argument before the
    reader (the reader is a closure, partial or bound method over the
    owner), or a reader that names ``self`` or the owner argument's own
    name. One entry per call."""
    out = []
    for path in sorted(ROOT.rglob("*.py")):
        where = str(path.relative_to(ROOT / "repro"))
        for node, scope in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)
            at = OWNER_REGISTRATIONS.get(getattr(func, "attr", None))
            if not isinstance(node, ast.Call) or at is None:
                continue
            if len(node.args) > at + 1:
                owner, reader = node.args[at], node.args[at + 1]
                held = {"self", getattr(owner, "id", "self")}
                names = {getattr(n, "id", None) for n in ast.walk(reader)}
                if not held & names:
                    continue
            out.append(f"{where}:{'.'.join(scope)}")
    return out


def public_definitions(path: Path) -> list[str]:
    """Module-level public functions and classes, and their public methods."""
    out = {}  # a property and its setter are one name
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        if isinstance(node, kinds) and not node.name.startswith("_"):
            out[node.name] = None
            if isinstance(node, ast.ClassDef):
                out.update(
                    (f"{node.name}.{item.name}", None) for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")
                )
    return list(out)


def referenced_names(path: Path) -> set[str]:
    """Identifiers, attributes and imported names appearing in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def uncalled_public_names() -> tuple[list[str], list[str]]:
    """``module:name`` of each public definition no other module names:
    those only tests name, and those only their own module names."""
    files = [
        path for top in CALLER_DIRS for path in sorted((ROOT.parent / top).rglob("*.py"))
    ]
    refs = {path: referenced_names(path) for path in files if path.name != "__init__.py"}
    test_only, module_only = [], []
    for path in sorted(ROOT.rglob("*.py")):
        own = referenced_names(path)
        for name in public_definitions(path):
            leaf = name.rsplit(".", 1)[-1]
            if not any(leaf in names for other, names in refs.items() if other != path):
                entry = f"{path.relative_to(ROOT)}:{name}"
                (module_only if leaf in own else test_only).append(entry)
    return test_only, module_only


KNOB_CALLER_DIRS = CALLER_DIRS + ("tests",)


def _defaulted(fn, method: bool) -> list[tuple[str, int | None]]:
    """``(name, position)`` of each defaulted parameter of ``fn``; a
    keyword-only one has no position, and a method's ``self`` is skipped."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[1 if method else 0:]
    first = len(positional) - len(args.defaults)
    out = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    out += [
        (arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]
    return out


def knob_definitions(path: Path) -> list[tuple[str, set[str], list]]:
    """``(name, callee names, defaulted parameters)`` of each public
    function and method; a public class's ``__init__`` is called by the
    class's name, or as ``super().__init__`` in a class based on it."""
    out = []
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, functions):
            out.append((node.name, {node.name}, _defaulted(node, False)))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, functions):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                if item.name == "__init__":
                    callees = {node.name, f"super().__init__ in {node.name}"}
                    out.append((node.name, callees, _defaulted(item, True)))
                elif not item.name.startswith("_"):
                    out.append((f"{node.name}.{item.name}", {item.name},
                                _defaulted(item, not static)))
    return [entry for entry in out if entry[2]]


def _called_name(node) -> str | None:
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def call_sites(path: Path, escapes: bool) -> list[tuple[str, int | None, set | None]]:
    """``(callee name, positional count, keywords)`` of each call in
    ``path``, ``None`` where a splat may pass anything. With ``escapes``,
    a name handed on as a value (an argument, a container item, an
    assignment's value; annotations aside) counts as a call passing
    anything: whoever receives it may."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bases = {
        id(node): [_called_name(base) for base in cls.bases]
        for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in ast.walk(cls)
    }
    annotations = [
        node.annotation if isinstance(node, (ast.arg, ast.AnnAssign)) else node.returns
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    typing = {id(node) for root in filter(None, annotations) for node in ast.walk(root)}
    out = []
    for node in ast.walk(tree):
        values = []
        if id(node) in typing:
            continue
        if isinstance(node, ast.Call):
            func = node.func
            count = None if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
            keywords = (None if any(k.arg is None for k in node.keywords)
                        else {k.arg for k in node.keywords})
            if (_called_name(func) == "__init__" and isinstance(func.value, ast.Call)
                    and _called_name(func.value.func) == "super"):
                out += [(f"super().__init__ in {base}", count, keywords)
                        for base in bases.get(id(node), [])]
            elif _called_name(func):
                out.append((_called_name(func), count, keywords))
            if _called_name(func) not in ("isinstance", "issubclass"):
                values = node.args + [k.value for k in node.keywords]
        elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            values = node.elts
        elif isinstance(node, ast.Dict):
            values = node.values
        elif isinstance(node, ast.Assign):
            values = [node.value]
        if escapes:
            out += [(_called_name(value), None, None) for value in values
                    if isinstance(value, (ast.Name, ast.Attribute))]
    return out


def _call_index() -> dict[bool, dict[str, list]]:
    """``{in tests: {callee name: [(positional count, keywords)]}}``."""
    calls: dict[bool, dict[str, list]] = {False: {}, True: {}}
    for top in KNOB_CALLER_DIRS:
        in_tests = top == "tests"
        for path in sorted((ROOT.parent / top).rglob("*.py")):
            for name, count, keywords in call_sites(path, escapes=not in_tests):
                calls[in_tests].setdefault(name, []).append((count, keywords))
    return calls


def _passes(sites: list, param: str, position: int | None) -> bool:
    return any(
        count is None or keywords is None or param in keywords
        or (position is not None and count > position)
        for count, keywords in sites
    )


def unpassed_parameters() -> tuple[list[str], list[str]]:
    """``module:function(parameter)`` of each defaulted parameter no call
    passes, and of each only calls under ``tests/`` pass: the knob
    counterparts of :func:`uncalled_public_names`."""
    calls = _call_index()
    unpassed, test_only = [], []
    for path in sorted(ROOT.rglob("*.py")):
        for qualified, callees, params in knob_definitions(path):
            sites = {
                in_tests: [site for callee in callees for site in by_name.get(callee, [])]
                for in_tests, by_name in calls.items()
            }
            for param, position in params:
                if _passes(sites[False], param, position):
                    continue
                entry = f"{path.relative_to(ROOT)}:{qualified}({param})"
                (test_only if _passes(sites[True], param, position) else unpassed).append(entry)
    return unpassed, test_only


def _is_dataclass(node: ast.ClassDef) -> tuple[bool, bool]:
    """``(is a dataclass, kw_only)`` from the class's decorators."""
    for decorator in node.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        if _called_name(call.func if call else decorator) == "dataclass":
            kw_only = any(
                k.arg == "kw_only" and getattr(k.value, "value", False) is True
                for k in (call.keywords if call else ())
            )
            return True, kw_only
    return False, False


def dataclass_fields(path: Path, inherited: dict[str, list]) -> list:
    """``(class, field, position)`` of each defaulted ``__init__`` field of
    the public dataclasses in ``path``; a keyword-only field has no
    position. ``inherited`` maps a dataclass's name to its ``__init__``
    fields, so a subclass's own fields are placed after its base's."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, ast.ClassDef):
            continue
        is_dataclass, kw_only = _is_dataclass(node)
        if not is_dataclass:
            continue
        fields = [f for base in node.bases for f in inherited.get(_called_name(base), [])]
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                annotation = ast.unparse(item.annotation)
                if "ClassVar" in annotation:
                    continue
                if annotation.endswith("KW_ONLY"):
                    kw_only = True
                    continue
                value = item.value
                if (isinstance(value, ast.Call) and _called_name(value.func) == "field"
                        and any(k.arg == "init" and getattr(k.value, "value", True) is False
                                for k in value.keywords)):
                    continue
                position = None if kw_only else len(fields)
                fields.append(item.target.id)
                if value is not None and not node.name.startswith("_"):
                    out.append((node.name, item.target.id, position))
        inherited[node.name] = fields
    return out


MUTATORS = {
    "append", "appendleft", "extend", "insert", "add", "update", "setdefault",
    "pop", "popleft", "popitem", "remove", "discard", "clear",
}


def state_names(path: Path) -> set[tuple[str | None, str]]:
    """``(class, attribute)`` of each attribute ``path`` assigns or
    mutates in place, outside ``__init__``/``__post_init__``: the record
    and counter fields. ``class`` is the class whose method writes
    ``self.<attribute>``, and ``None`` for any other receiver."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    construction = {
        id(node) for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "__post_init__")
        for node in ast.walk(fn)
    }
    # ast.walk is breadth-first, so a nested class overwrites its outer one
    owner = {
        id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in ast.walk(cls)
    }

    def attribute(node) -> tuple[str | None, str] | None:
        while isinstance(node, ast.Subscript):
            node = node.value
        if not isinstance(node, ast.Attribute):
            return None
        on_self = getattr(node.value, "id", None) == "self"
        return (owner.get(id(node)) if on_self else None), node.attr

    names = set()
    for node in ast.walk(tree):
        if id(node) in construction:
            continue
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATORS):
            targets = [node.func.value]
        for target in targets:
            for element in getattr(target, "elts", [target]):
                names.add(attribute(element))
    return names - {None}


def unset_fields() -> tuple[list[str], list[str]]:
    """``module:Class.field`` of each defaulted dataclass field no call
    sets, and of each only calls under ``tests/`` set: the dataclass
    counterpart of :func:`unpassed_parameters`.

    A field some code mutates is a record, not a knob: one ``Class``'s
    own methods mutate as ``self.<field>``, or one mutated through
    another receiver when no other class mutates ``self.<field>``."""
    calls = _call_index()
    paths = sorted(ROOT.rglob("*.py"))
    writers: dict[str, set[str | None]] = {}
    for path in paths:
        for cls, name in state_names(path):
            writers.setdefault(name, set()).add(cls)
    inherited: dict[str, list] = {}
    unset, test_only = [], []
    for path in paths:
        for cls, name, position in dataclass_fields(path, inherited):
            classes = writers.get(name, set())
            if cls in classes or classes == {None}:
                continue
            sets = {
                in_tests: _passes(by_name.get(cls, []), name, position)
                or _passes(by_name.get("replace", []), name, None)
                for in_tests, by_name in calls.items()
            }
            if sets[False]:
                continue
            entry = f"{path.relative_to(ROOT)}:{cls}.{name}"
            (test_only if sets[True] else unset).append(entry)
    return unset, test_only


def written_attributes(path: Path) -> dict[str, str]:
    """``attribute -> Class`` of each ``self.<attribute>`` a class in
    ``path`` assigns, and of each field of a dataclass in ``path`` (its
    generated ``__init__`` writes them all)."""
    written = {}
    for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(cls, ast.ClassDef):
            continue
        if _is_dataclass(cls)[0]:
            written.update(
                (item.target.id, cls.name) for item in cls.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                and "ClassVar" not in ast.unparse(item.annotation)
                and not ast.unparse(item.annotation).endswith("KW_ONLY")
            )
        written.update(
            (node.attr, cls.name) for node in ast.walk(cls)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "self"
        )
    return written


def read_names(path: Path) -> set[str]:
    """Attribute names ``path`` reads, and its string constants."""
    return {
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Constant) and isinstance(node.value, str))
    }


def unread_attributes() -> tuple[list[str], list[str]]:
    """``module:Class.attribute`` of each attribute ``src/`` writes that no
    file outside ``tests/`` reads: those nothing reads, and those only
    ``tests/`` read."""
    read = {
        in_tests: set().union(*(
            read_names(path) for top in (("tests",) if in_tests else CALLER_DIRS)
            for path in sorted((ROOT.parent / top).rglob("*.py"))
        ))
        for in_tests in (False, True)
    }
    unread, test_only = [], []
    for path in sorted(ROOT.rglob("*.py")):
        for name, cls in written_attributes(path).items():
            if name not in read[False]:
                entry = f"{path.relative_to(ROOT)}:{cls}.{name}"
                (test_only if name in read[True] else unread).append(entry)
    return unread, test_only


def cli_verbs() -> dict[str, int]:
    """Flag count of each ``repro`` verb (``-h`` not counted)."""
    from repro.cli import build_parser

    verbs = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return {
        verb: sum(1 for a in parser._actions if a.option_strings and a.dest != "help")
        for verb, parser in verbs.choices.items()
    }


def main() -> int:
    sys.path.insert(0, str(ROOT))
    packages = sorted(init.parent for init in ROOT.rglob("__init__.py"))
    print(f"{'package':<26} {'lines':>6} {'__all__':>8} {'classes':>8} {'ctor params':>12}")
    total, params, detail = 0, 0, []
    for path in packages:
        dotted = ".".join(path.relative_to(ROOT).parts)
        module = importlib.import_module(dotted)
        ctors = constructors(path)
        n = lines(path)
        total += n
        params += sum(ctors.values())
        print(f"{dotted:<26} {n:>6} {len(getattr(module, '__all__', ())):>8} "
              f"{len(ctors):>8} {sum(ctors.values()):>12}")
        detail += [(dotted, name, count) for name, count in sorted(ctors.items())]
    print(f"{'src/ total':<26} {total:>6} {'':>8} {'':>8} {params:>12}")
    if "--classes" in sys.argv[1:]:
        print()
        for dotted, name, count in detail:
            print(f"  {dotted}.{name}: {count}")
    found = [
        f"{path.relative_to(ROOT)}:{name}"
        for path in sorted(ROOT.rglob("*.py")) for name in mutable_globals(path)
    ]
    print(f"\nmodule-level mutable globals: {len(found)}")
    for entry in found:
        print(f"  {entry}")
    verbs = cli_verbs()
    print(f"\nCLI: {len(verbs)} verbs, {sum(verbs.values())} flags")
    print("  " + ", ".join(f"{verb} {flags}" for verb, flags in verbs.items()))
    sites = Counter({"_publish* definitions": 0, "_publish* call sites": 0})
    for path in sorted(ROOT.rglob("*.py")):
        sites.update(telemetry_sites(path)[0])
    print("\ntelemetry record sites in src/:")
    print("  " + ", ".join(f"{site} {count}" for site, count in sorted(sites.items())))
    for site in lookup_sites():
        print(f"  lookup per event: {site}")
    owners = [path for path in sorted(ROOT.rglob("*.py")) if "tenancy" not in path.parts]
    print(f"\nquota write sites in src/ owners: {sum(map(quota_writes, owners))}")
    refs = sum(map(reference_writes, sorted(ROOT.rglob("*.py"))))
    print(f"\nchunk reference write sites in src/: {refs}")
    trips = sum(map(json_round_trips, sorted(ROOT.rglob("*.py"))))
    print(f"\nJSON round-trip sites in src/: {trips}")
    reads = raw_body_reads()
    print(f"\nraw request-body reads outside the route tables: {len(reads)}")
    for site in sorted(set(reads)):
        print(f"  {site}: {reads.count(site)}")
    timers = hand_timers()
    print(f"\ndurations timed outside Tracer in src/: {len(timers)}"
          f" (reports allowed: {', '.join(sorted(TIMED_REPORTS))})")
    for site in sorted(set(timers)):
        print(f"  {site}: {timers.count(site)}")
    spans = span_sites()
    print(f"\nproduct span sites in src/: {sum(map(len, spans.values()))}")
    for package, sites in spans.items():
        print(f"  {package}: {len(sites)}")
        for site in sites:
            print(f"    {site}")
    strong = strong_registrations()
    print(f"\nowner registrations held strongly in src/: {len(strong)}")
    for site in sorted(set(strong)):
        print(f"  {site}: {strong.count(site)}")
    test_only, module_only = uncalled_public_names()
    print(f"\npublic names no other module names: {len(test_only) + len(module_only)}")
    print(f"\n  named nowhere outside tests: {len(test_only)}")
    for entry in test_only:
        print(f"    {entry}")
    print(f"\n  named only inside their own module: {len(module_only)}")
    for entry in module_only:
        print(f"    {entry}")
    unpassed, test_only = unpassed_parameters()
    print(f"\ndefaulted parameters no call passes: {len(unpassed)}")
    for entry in unpassed:
        print(f"  {entry}")
    print(f"\ndefaulted parameters only tests pass: {len(test_only)}")
    for entry in test_only:
        print(f"  {entry}")
    unset, test_only = unset_fields()
    print(f"\ndataclass fields no call sets: {len(unset)}")
    for entry in unset:
        print(f"  {entry}")
    print(f"\ndataclass fields only tests set: {len(test_only)}")
    for entry in test_only:
        print(f"  {entry}")
    unread, test_only = unread_attributes()
    print(f"\nattributes src/ writes and nothing reads: {len(unread)}")
    for entry in unread:
        print(f"  {entry}")
    print(f"\nattributes src/ writes and only tests read: {len(test_only)}")
    for entry in test_only:
        print(f"  {entry}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
