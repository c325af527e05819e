"""Differential test harness: planned executor vs the naive oracle.

A seeded generator builds random tables and random SELECT statements —
projections, UDF calls (including nested and repeated ones), WHERE
conjunctions, aggregates with GROUP BY, ORDER BY and LIMIT — and every
query runs on both executors:

* results must match **bit-for-bit** (``repr`` equality, so ``3`` and
  ``3.0`` do not conflate);
* the planned path must never make *more* UDF calls than the naive
  oracle (dedup + cascade filtering can only save);
* a chaos-marked test injects drop/latency faults at
  ``sql.udf.dispatch`` and asserts deterministic retry-then-shed with
  bit-identical same-seed traces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import chaos
from repro.chaos import FaultKind, FaultPlan, FaultRule
from repro.exceptions import RequestShedError
from repro.sqlext import Column, Database

QUERIES = 220  # >= 200 seeded random queries (the acceptance floor)

FRUITS = ("apple", "pear", "plum", "fig", "it's", "quince")


def make_udfs(db: Database) -> None:
    """Register pure, total, None-safe scalar UDFs on both executors."""
    db.udfs.register(
        "band", lambda v: None if v is None else ("lo" if v < 50 else "hi")
    )
    db.udfs.register(
        "double", lambda v: None if v is None else v * 2
    )
    db.udfs.register(
        "tag", lambda v: f"t:{v!r}"
    )


def make_database(rng: np.random.Generator, udf_cache: bool = True) -> Database:
    """A database with a few random tables of mixed column types."""
    db = Database(udf_cache=udf_cache)
    make_udfs(db)
    specs = {
        "alpha": (
            [Column("id", "int"), Column("a", "int"), Column("b", "int"),
             Column("c", "float"), Column("s", "str")],
            int(rng.integers(0, 40)),
        ),
        "beta": (
            [Column("id", "int"), Column("a", "int"), Column("s", "str")],
            int(rng.integers(1, 25)),
        ),
        "empty": (
            [Column("id", "int"), Column("a", "int"), Column("s", "str")],
            0,
        ),
    }
    for name, (columns, rows) in specs.items():
        db.create_table(name, columns)
        for i in range(rows):
            values = {"id": i}
            for column in columns[1:]:
                if rng.random() < 0.15:
                    values[column.name] = None
                elif column.name == "c":
                    values[column.name] = float(
                        np.round(rng.uniform(-10, 110), 2)
                    )
                elif column.name == "s":
                    values[column.name] = FRUITS[int(rng.integers(len(FRUITS)))]
                else:
                    values[column.name] = int(rng.integers(-5, 100))
            db.insert(name, **values)
    return db

# column name -> (kind, the literal pool WHERE comparisons draw from)
_COLUMN_KINDS = {
    "id": ("int", (0, 3, 10, 20)),
    "a": ("int", (-5, 0, 7, 42, 90)),
    "b": ("int", (-5, 0, 7, 42, 90)),
    "c": ("float", (-3.5, 0.0, 25.25, 99.9)),
    "s": ("str", FRUITS),
}

# UDFs keyed by the argument kind they accept; (name, output kind)
_UDFS_BY_KIND = {
    "int": (("band", "str"), ("double", "int"), ("tag", "str")),
    "float": (("band", "str"), ("double", "float"), ("tag", "str")),
    "str": (("tag", "str"),),
}


class QueryGenerator:
    """Builds random SELECT statements valid for both executors."""

    def __init__(self, rng: np.random.Generator, table: str,
                 columns: list[str]):
        self.rng = rng
        self.table = table
        self.columns = columns

    def _pick(self, options):
        return options[int(self.rng.integers(len(options)))]

    def _scalar_expr(self) -> tuple[str, str]:
        """A random (sql text, output kind) non-aggregate expression."""
        column = self._pick(self.columns)
        kind = _COLUMN_KINDS[column][0]
        roll = self.rng.random()
        if roll < 0.45:
            return column, kind
        udf, out_kind = self._pick(_UDFS_BY_KIND[kind])
        if roll < 0.85:
            return f"{udf}({column})", out_kind
        # Nested call: the inner call's results are the outer's arguments.
        inner, inner_kind = f"{udf}({column})", out_kind
        outer, outer_kind = self._pick(_UDFS_BY_KIND[inner_kind])
        return f"{outer}({inner})", outer_kind

    def _predicate(self) -> str:
        column = self._pick(self.columns)
        kind, literals = _COLUMN_KINDS[column]
        use_udf = self.rng.random() < 0.3
        if use_udf:
            udf, out_kind = self._pick(_UDFS_BY_KIND[kind])
            left = f"{udf}({column})"
            _, literals = ("str", ("lo", "hi", "t:None"))
            if out_kind != "str":
                literals = _COLUMN_KINDS[column][1]
            kind = out_kind
        else:
            left = column
        if kind == "str":
            op = self._pick(("=", "!=", "<", ">"))
            value = self._pick(literals)
            return f"{left} {op} '{value.replace(chr(39), chr(39) * 2)}'"
        op = self._pick(("=", "!=", "<", "<=", ">", ">="))
        return f"{left} {op} {self._pick(literals)}"

    def _where(self) -> str:
        count = int(self.rng.integers(0, 4))
        if not count:
            return ""
        return " WHERE " + " AND ".join(self._predicate() for _ in range(count))

    def plain_query(self) -> str:
        items = []
        names = []
        for index in range(int(self.rng.integers(1, 4))):
            expr, _ = self._scalar_expr()
            name = f"o{index}"
            items.append(f"{expr} AS {name}")
            names.append(name)
        sql = f"SELECT {', '.join(items)} FROM {self.table}{self._where()}"
        if self.rng.random() < 0.5:
            keys = []
            for name in names[: int(self.rng.integers(1, len(names) + 1))]:
                direction = self._pick((" ASC", " DESC", ""))
                keys.append(name + direction)
            sql += " ORDER BY " + ", ".join(keys)
        if self.rng.random() < 0.4:
            sql += f" LIMIT {int(self.rng.integers(0, 12))}"
        return sql

    def aggregate_query(self) -> str:
        items = []
        names = []
        group = []
        for index in range(int(self.rng.integers(0, 3))):
            expr, _ = self._scalar_expr()
            name = f"k{index}"
            items.append(f"{expr} AS {name}")
            names.append(name)
            group.append(name)
        for index in range(int(self.rng.integers(1, 3))):
            agg = self._pick(("count", "sum", "avg", "min", "max"))
            if agg == "count" and self.rng.random() < 0.5:
                items.append(f"count(*) AS g{index}")
                names.append(f"g{index}")
                continue
            column = self._pick(self.columns)
            kind = _COLUMN_KINDS[column][0]
            if agg in ("sum", "avg") and kind == "str":
                column = "id"
                kind = "int"
            if self.rng.random() < 0.3 and kind != "str":
                udf = "double"
                expr = f"{agg}({udf}({column}))"
            else:
                expr = f"{agg}({column})"
            items.append(f"{expr} AS g{index}")
            names.append(f"g{index}")
        sql = f"SELECT {', '.join(items)} FROM {self.table}{self._where()}"
        if group:
            sql += " GROUP BY " + ", ".join(group)
        if self.rng.random() < 0.4:
            key = self._pick(names)
            sql += f" ORDER BY {key}{self._pick((' ASC', ' DESC', ''))}"
        if self.rng.random() < 0.3:
            sql += f" LIMIT {int(self.rng.integers(0, 6))}"
        return sql

    def query(self) -> str:
        if self.rng.random() < 0.45:
            return self.aggregate_query()
        return self.plain_query()


def run_differential(seed: int, queries: int, udf_cache: bool = True) -> dict:
    """Run ``queries`` random statements on both executors; compare."""
    rng = np.random.default_rng(seed)
    db = make_database(rng, udf_cache)
    stats = {"queries": 0, "rows": 0, "planned_calls": 0, "naive_calls": 0,
             "cache_hits": 0, "batches": 0}
    generators = {
        name: QueryGenerator(rng, name, [c.name for c in table.columns])
        for name, table in db.tables.items()
    }
    while stats["queries"] < queries:
        generator = generators[
            ("alpha", "beta", "empty")[int(rng.integers(3))]
        ]
        sql = generator.query()
        naive = db.execute(sql, executor="naive")
        naive_calls = naive.udf_calls
        planned = db.execute(sql, executor="planned")
        assert planned.columns == naive.columns, sql
        assert planned.rows == naive.rows, sql
        # Bit-for-bit: repr distinguishes 3 from 3.0 and True from 1.
        assert repr(planned.rows) == repr(naive.rows), sql
        assert planned.udf_calls <= naive_calls, (
            f"planned made MORE udf calls ({planned.udf_calls} > "
            f"{naive_calls}): {sql}"
        )
        stats["queries"] += 1
        stats["rows"] += len(planned.rows)
        stats["planned_calls"] += planned.udf_calls
        stats["naive_calls"] += naive_calls
        stats["cache_hits"] += planned.cache_hits
        stats["batches"] += planned.udf_batches
    return stats


@pytest.mark.parametrize("seed", [0, 1])
def test_differential_planned_equals_naive(seed):
    """>= 200 random queries per seed: planned == naive, calls <= naive."""
    stats = run_differential(seed, QUERIES)
    assert stats["queries"] >= 200
    # The workloads genuinely exercise the batched path.
    assert stats["planned_calls"] > 0
    assert stats["batches"] > 0
    assert stats["planned_calls"] <= stats["naive_calls"]


@pytest.mark.parametrize("seed", [0, 1])
def test_differential_without_udf_cache(seed):
    """Cache off, every UDF call in a query dispatches its own distinct
    arguments; the planned path still makes no more calls than naive."""
    stats = run_differential(seed, QUERIES, udf_cache=False)
    assert stats["queries"] >= 200
    assert stats["batches"] > 0 and stats["cache_hits"] == 0
    assert stats["planned_calls"] <= stats["naive_calls"]


def test_differential_covers_cache_hits():
    """Repeated argument values must be served from the cache."""
    stats = run_differential(2, 60)
    assert stats["cache_hits"] > 0


def _chaos_run(seed: int, probability: float, kind: FaultKind):
    """One seeded chaos run; returns (trace, outcomes, results)."""
    rng = np.random.default_rng(seed)
    db = make_database(rng)
    generator = QueryGenerator(
        rng, "alpha", [c.name for c in db.tables["alpha"].columns]
    )
    statements = [generator.query() for _ in range(25)]
    plan = FaultPlan(
        [FaultRule(point="sql.udf.dispatch", kind=kind,
                   probability=probability, latency=0.25)],
        seed=seed,
    )
    outcomes = []
    results = []
    with chaos.active(plan):
        for sql in statements:
            try:
                result = db.execute(sql, executor="planned")
            except RequestShedError as exc:
                outcomes.append(("shed", exc.reason))
            else:
                outcomes.append(("ok", len(result.rows)))
                results.append((result.columns, result.rows))
    return list(db.dispatcher.trace), outcomes, results


@pytest.mark.chaos
def test_dispatch_fault_retries_then_sheds_deterministically():
    """Heavy drop faults: retries fire, exhaustion sheds with 'dispatch_failed'."""
    trace, outcomes, _ = _chaos_run(7, 0.9, FaultKind.DROP)
    events = [entry["event"] for entry in trace]
    assert "retry" in events
    assert "shed" in events
    sheds = [o for o in outcomes if o[0] == "shed"]
    assert sheds, "no query was shed under 90% drop faults"
    assert all(reason == "dispatch_failed" for _, reason in sheds)


@pytest.mark.chaos
def test_dispatch_fault_trace_is_bit_identical_across_runs():
    """Same seed, same plan -> byte-identical trace and outcomes."""
    first = _chaos_run(11, 0.5, FaultKind.DROP)
    second = _chaos_run(11, 0.5, FaultKind.DROP)
    assert repr(first) == repr(second)


@pytest.mark.chaos
def test_dispatch_latency_faults_do_not_change_results():
    """Latency-only faults slow dispatches but never alter rows."""
    trace, outcomes, results = _chaos_run(5, 0.8, FaultKind.LATENCY)
    assert all(outcome[0] == "ok" for outcome in outcomes)
    assert any(entry["event"] == "latency" for entry in trace)
    rng = np.random.default_rng(5)
    db = make_database(rng)
    generator = QueryGenerator(
        rng, "alpha", [c.name for c in db.tables["alpha"].columns]
    )
    clean = []
    for sql in [generator.query() for _ in range(25)]:
        result = db.execute(sql, executor="planned")
        clean.append((result.columns, result.rows))
    assert repr(clean) == repr(results)
