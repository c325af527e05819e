"""The column executor against the row-at-a-time oracle, and the table's encoding.

A Hypothesis differential test generates tables (NULLs, mixed int and
real columns, ``0.0``/``-0.0``, ints beyond int64, NaN, an upper-case
column) and queries (UDFs returning a mix of ``1``, ``1.0`` and
``True``, ties, case-folded column names, ``LIMIT 0``, empty tables)
and requires the planned executor to match the naive one on ``columns``,
on ``repr(rows)`` and on the type of any exception raised. A predicate
that may raise (a type mismatch or an unknown column) only appears in a
WHERE whose predicates the planner does not reorder, so both
executors reach it on the same rows; one behind a predicate that
selects nothing must raise on neither.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SQLExecutionError
from repro.sqlext import Column, Database

#: name -> (dtype, values drawn for it, literals compared with it)
COLUMNS = {
    "i": ("integer",
          st.one_of(st.none(), st.integers(-3, 3), st.sampled_from([2**63, -2**64 - 7, 2**70]),
                    st.just(True)),
          ("0", "2", "-1", "9223372036854775808", "99999999999999999999999")),
    "r": ("real",
          st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.5, -2.25, math.inf]),
                    st.builds(float, st.just("nan")), st.integers(-2, 2)),
          ("0.0", "1.5", "-2", "0")),
    "s": ("text", st.one_of(st.none(), st.sampled_from(["a", "b", "it's", ""])),
          ("'a'", "'it''s'", "''")),
    "Up": ("integer", st.one_of(st.none(), st.integers(0, 2)), ("1", "0")),
}
#: how a query may spell each column; ``up`` and ``UP`` are unknown columns
SPELLINGS = {"i": ("i", "I"), "r": ("r", "R"), "s": ("s", "S"), "Up": ("Up", "up")}
NUMERIC = ("i", "r", "Up")


def _mix(value):
    """1, 1.0, True, 0, -0.0 or 0.0: equal values of different types."""
    if value is None:
        return None
    if isinstance(value, str):
        key = len(value)
    else:
        key = int(value) if math.isfinite(value) else 3
    return (1, 1.0, True, 0, -0.0, 0.0)[key % 6]


def make_database(rows: list[dict]) -> Database:
    db = Database()
    db.create_table("t", [Column(name, dtype) for name, (dtype, _, _) in COLUMNS.items()])
    for row in rows:
        db.insert("t", **row)
    db.udfs.register("mix", _mix)
    # NaN is returned as the argument's object: the oracle groups NaN
    # keys by identity and calls a UDF once per row, the planner once
    # per distinct argument, so a fresh NaN per call would split them.
    db.udfs.register("double", lambda v: v if v is None or v != v else v * 2)
    db.udfs.register("tag", lambda v: f"t:{v!r}")
    return db


@st.composite
def predicates(draw, risky_ok: bool):
    """``(sql, uses_udf, risky)`` for one WHERE conjunct."""
    column = draw(st.sampled_from(sorted(COLUMNS)))
    spelled = draw(st.sampled_from(SPELLINGS[column]))
    risky = spelled != column and column == "Up"
    udf = draw(st.sampled_from([None, "mix", "double", "tag"]))
    left, kind = spelled, ("num" if column in NUMERIC else "str")
    if udf == "double" and kind == "str":
        udf = None
    if udf:
        left = f"{udf}({spelled})"
        kind = "str" if udf == "tag" else kind if udf == "double" else "num"
    if kind == "num":
        literal = draw(st.sampled_from(COLUMNS["i"][2] + COLUMNS["r"][2]))
    else:
        literal = draw(st.sampled_from(COLUMNS["s"][2] + ("'t:1'", "'t:None'")))
    op = draw(st.sampled_from(["=", "!=", "<>", "<", "<=", ">", ">="]))
    if risky_ok and draw(st.integers(0, 5)) == 0:  # a type mismatch
        literal = "'a'" if kind == "num" else "1"
        op = draw(st.sampled_from(["<", ">="]))
        risky = True
    if risky_ok and draw(st.integers(0, 7)) == 0:
        left, udf, risky = "ghost", None, True
    return f"{left} {op} {literal}", bool(udf), risky


@st.composite
def where_clauses(draw):
    drawn = draw(st.lists(predicates(risky_ok=draw(st.booleans())), max_size=3))
    if any(risky for _, _, risky in drawn):
        # Keep the textual order: no plain predicate may sink below a
        # UDF one.
        plain = [p for p in drawn if not p[1]]
        drawn = plain if plain else drawn
    if draw(st.integers(0, 4)) == 0:  # selects nothing: what follows is unreachable
        drawn.insert(0, ("i > 99999999999999999999999", False, False))
        drawn.append(draw(predicates(risky_ok=True)))
        drawn = [p for p in drawn if not p[1]] or drawn[:1]
    return " AND ".join(sql for sql, _, _ in drawn)


@st.composite
def scalar_exprs(draw):
    column = draw(st.sampled_from(sorted(COLUMNS)))
    spelled = draw(st.sampled_from(SPELLINGS[column]))
    roll = draw(st.integers(0, 9))
    if roll == 0:
        return draw(st.sampled_from(["7", "'x'", "1.5"]))
    if roll < 4:
        return spelled
    udf = draw(st.sampled_from(["mix", "tag"] + (["double"] if column in NUMERIC else [])))
    if roll == 9:
        return f"tag({udf}({spelled}))"
    return f"{udf}({spelled})"


@st.composite
def queries(draw):
    where = draw(where_clauses())
    where = f" WHERE {where}" if where else ""
    names: list[str] = []
    if draw(st.booleans()):
        items = []
        for index in range(draw(st.integers(1, 3))):
            items.append(f"{draw(scalar_exprs())} AS o{index}")
            names.append(f"o{index}")
        sql = f"SELECT {', '.join(items)} FROM t{where}"
    else:
        items, group = [], []
        for index in range(draw(st.integers(0, 2))):
            items.append(f"{draw(scalar_exprs())} AS k{index}")
            names.append(f"k{index}")
            group.append(f"k{index}")
        for index in range(draw(st.integers(1, 2))):
            agg = draw(st.sampled_from(["count", "sum", "avg", "min", "max"]))
            if agg == "count" and draw(st.booleans()):
                arg = "*"
            elif agg in ("sum", "avg"):
                column = draw(st.sampled_from(NUMERIC))
                arg = draw(st.sampled_from([column, f"mix({column})", f"double({column})"]))
            else:
                arg = draw(scalar_exprs())
            items.append(f"{agg}({arg}) AS g{index}")
            names.append(f"g{index}")
        sql = f"SELECT {', '.join(items)} FROM t{where}"
        if group:
            sql += " GROUP BY " + ", ".join(group)
    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2))
        sql += " ORDER BY " + ", ".join(
            draw(st.sampled_from([key, key.upper()])) + draw(st.sampled_from(["", " DESC"]))
            for key in keys
        )
    if draw(st.booleans()):
        sql += f" LIMIT {draw(st.integers(0, 4))}"
    return sql


rows_strategy = st.lists(
    st.fixed_dictionaries({name: values for name, (_, values, _) in COLUMNS.items()}),
    max_size=14,
)


def outcome(db: Database, sql: str, executor: str):
    try:
        result = db.execute(sql, executor=executor)
    except Exception as exc:  # the type is what both executors must agree on
        return type(exc)
    return result.columns, repr(result.rows)


@settings(max_examples=300, deadline=None)
@given(rows=rows_strategy, sqls=st.lists(queries(), min_size=1, max_size=4))
def test_planned_equals_naive_on_generated_tables(rows, sqls):
    db = make_database(rows)
    for sql in sqls:
        naive = outcome(db, sql, "naive")
        assert outcome(db, sql, "planned") == naive, sql
        assert outcome(db, sql, "planned") == naive, sql  # warm: served by the cache


class TestUnreachableErrors:
    """An error only an empty selection reaches fires on neither executor."""

    @pytest.fixture
    def db(self):
        return make_database([{"i": 1, "r": 1.5, "s": "a", "Up": 0},
                              {"i": 2, "r": math.nan, "s": None, "Up": 1}])

    @pytest.mark.parametrize("sql", [
        "SELECT ghost FROM t WHERE i > 5",
        "SELECT s FROM t WHERE i > 5 AND s < 1",
        "SELECT tag(i) AS x FROM t WHERE i > 5 AND ghost = 1",
        "SELECT sum(s) AS total FROM t WHERE i > 5",
        "SELECT mix(ghost) AS m, count(*) AS n FROM t WHERE s = 'zzz' GROUP BY m",
    ])
    def test_no_error(self, db, sql):
        for executor in ("naive", "planned"):
            assert db.execute(sql, executor=executor).rows == []

    @pytest.mark.parametrize("sql, error", [
        ("SELECT ghost FROM t", SQLExecutionError),
        ("SELECT s FROM t WHERE i > 1 AND s < 1", None),  # s is NULL there: no row
        ("SELECT s FROM t WHERE s < 1", TypeError),
        ("SELECT sum(s) AS total FROM t", TypeError),
    ])
    def test_reachable_errors_match(self, db, sql, error):
        for executor in ("naive", "planned"):
            if error is None:
                assert db.execute(sql, executor=executor).rows == []
            else:
                with pytest.raises(error):
                    db.execute(sql, executor=executor)


class TestEncoding:
    def test_codes_keep_equal_values_of_different_kinds_apart(self):
        db = make_database([{"r": v} for v in (0.0, -0.0, 0.0, float("nan"), float("nan"), None)])
        codes, values = db.tables["t"].encoded("r")
        assert codes.tolist() == [0, 1, 0, 2, 2, 3]
        assert repr(values) == "[0.0, -0.0, nan, None]"
        rows = db.tables["t"].rows
        assert rows[3]["r"] is rows[4]["r"] is values[2]  # one NaN object

    def test_columns_resolve_exactly_then_lower_cased(self):
        table = make_database([{"i": 4, "Up": 1}]).tables["t"]
        assert table.encoded("I")[1] == [4]
        assert table.encoded("Up")[1] == [1]
        assert table.encoded("up") is None and table.encoded("UP") is None

    def test_mixed_kind_group_keys_merge_like_the_oracle(self):
        db = make_database([{"i": v} for v in (3, 4, 5, 0, 1, 2)])
        sql = "SELECT mix(i) AS m, count(*) AS n FROM t GROUP BY m"
        planned = db.execute(sql)
        assert repr(planned.rows) == repr(db.execute(sql, executor="naive").rows)
        assert repr(planned.rows) == "[(0, 3), (1, 3)]"


class TestInsertCoercion:
    @pytest.fixture
    def table(self):
        db = Database()
        return db.create_table("t", [Column("id", "integer"), Column("x", "real")],
                               primary_key=("id",))

    @pytest.mark.parametrize("value", [3.7, -0.5, math.inf, -math.inf, math.nan])
    def test_an_integer_column_refuses_what_it_cannot_hold(self, table, value):
        with pytest.raises(SQLExecutionError, match="cannot store"):
            table.insert(id=value)
        assert len(table) == 0

    def test_integral_values_still_coerce(self, table):
        table.insert(id=3.0, x=2)
        table.insert(id="4", x=math.inf)
        assert repr([(row["id"], row["x"]) for row in table]) == "[(3, 2.0), (4, inf)]"


class TestUdfCallCounting:
    def test_a_raising_udf_counts_no_call(self):
        from repro import telemetry

        db = make_database([{"i": 1}, {"i": 2}])

        def boom(value):  # the naive executor evaluates row 1, then raises
            if value == 2:
                raise ValueError("boom")
            return value

        db.udfs.register("boom", boom, batch_fn=lambda values: [boom(v) for v in values])
        registry = telemetry.get_registry()
        for executor in ("naive", "planned"):
            with pytest.raises(ValueError):
                db.execute("SELECT boom(i) FROM t", executor=executor)
            assert registry.counter("repro_sql_udf_calls_total").value(executor=executor) == 0
        assert registry.counter("repro_sql_udf_batch_rows_total").value(udf="boom") == 0

    def test_a_query_a_udf_runs_is_not_charged_to_the_query_calling_it(self):
        """Each query counts its own work, also while another runs inside it."""
        from repro import telemetry

        def outer(executor: str) -> tuple[int, int, int]:
            db = Database()
            db.create_table("t", [Column("i", "integer")])
            for i in (1, 2, 3):
                db.insert("t", i=i)
            db.udfs.register("g", lambda v: v * 10)
            # each call runs a planned inner query: 2 evaluations cold, 2 hits warm
            db.udfs.register(
                "f", lambda v: v + len(db.execute("SELECT g(i) FROM t WHERE i < 3").rows))
            result = db.execute("SELECT f(i) FROM t", executor=executor)
            return result.udf_calls, result.udf_batches, result.cache_hits

        assert outer("naive") == (3, 0, 0)
        assert outer("planned") == (3, 1, 0)
        calls = telemetry.get_registry().counter("repro_sql_udf_calls_total")
        assert calls.value(executor="naive") == 3
        assert calls.value(executor="planned") == 2 + (3 + 2)  # inner, then outer + inner


class TestDistinctArguments:
    def test_warm_eval_udf_looks_up_each_distinct_argument_once(self):
        rows = [{"s": s} for s in ("b", "a", "b", None, "a", "c", "b")]
        db = make_database(rows)
        sql = "SELECT tag(s) AS t FROM t WHERE s != 'c'"
        cold = db.execute(sql)
        cache = db.dispatcher._caches["tag"]
        looked_up: list = []
        entries = cache._entries

        class Spy(type(entries)):
            def __contains__(self, key):
                looked_up.append(key)
                return super().__contains__(key)

        cache._entries = Spy(entries)
        hits_before = db.dispatcher.cache_hits
        warm = db.execute(sql)
        assert looked_up == [("str", "'b'"), ("str", "'a'")]  # first-seen order
        assert warm.rows == cold.rows == [("t:'b'",), ("t:'a'",), ("t:'b'",), ("t:'a'",), ("t:'b'",)]
        assert warm.cache_hits == 5 and warm.udf_calls == 0
        assert db.dispatcher.cache_hits - hits_before == 5
        assert cold.udf_calls == 2 and cold.cache_hits == 3  # repeats in one scan hit too

    def test_plan_is_built_once_per_text(self):
        from repro.sqlext.plan import compile_plan, explain_plan

        db = make_database([{"i": 1}])
        first = compile_plan("SELECT i FROM t")
        hits = compile_plan.cache_info().hits
        assert db.execute("SELECT i FROM t").rows == [(1,)]
        assert compile_plan.cache_info().hits == hits + 1  # execute reads the memo
        assert compile_plan("SELECT i FROM t") is first
        assert db.explain("SELECT i FROM t") == explain_plan(first)
