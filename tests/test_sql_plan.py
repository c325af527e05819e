"""Golden-plan snapshots, where UDF calls run, and tokenizer edge cases.

The textual ``explain()`` format is a stable contract: these tests pin
exact plans for representative queries — a WHERE clause's UDF-free
conjuncts ahead of the ones calling a UDF, each group in textual
order, and every UDF call left where the query wrote it. The placement
tests check what that order buys: a UDF conjunct receives only the
arguments of the rows the plain conjuncts kept. The tokenizer section
covers the edge cases the random query generator surfaced: unary minus
vs negative literals, doubled single-quote escapes round-tripping
through ``explain()``, and parse errors that report source positions.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.exceptions import SQLParseError
from repro.sqlext import Column, Database


@pytest.fixture()
def db():
    database = Database()
    database.create_table(
        "foodlog",
        [Column("user_id", "int"), Column("age", "int"),
         Column("location", "str"), Column("image_path", "str")],
    )
    database.udfs.register("food_name", lambda path: path)
    database.udfs.register("calories", lambda food: 1)
    return database


def golden(text: str) -> str:
    return textwrap.dedent(text).strip()


class TestGoldenPlans:
    def test_plan_under_aggregate(self, db):
        plan = db.explain(
            "SELECT food_name(image_path) AS name, count(*) AS n "
            "FROM foodlog WHERE age > 52 AND location = 'sg' "
            "GROUP BY name ORDER BY n DESC LIMIT 3"
        )
        assert plan == golden("""
            Limit(count=3)
              Sort(n DESC)
                Aggregate(keys=[food_name(image_path) AS name], aggs=[count(*) AS n], group_by=[name])
                  Filter(age > 52 AND location = 'sg')
                    Scan(foodlog)
        """)

    def test_udf_free_conjuncts_run_first(self, db):
        plan = db.explain(
            "SELECT user_id FROM foodlog "
            "WHERE food_name(image_path) = 'laksa' AND age > 30 "
            "AND calories(location) > 0 AND location = 'sg'"
        )
        assert plan == golden("""
            Project(user_id)
              Filter(age > 30 AND location = 'sg' AND food_name(image_path) = 'laksa' AND calories(location) > 0)
                Scan(foodlog)
        """)

    def test_repeated_udf_calls_stay_where_written(self, db):
        plan = db.explain(
            "SELECT calories(food_name(image_path)) AS kcal, "
            "food_name(image_path) AS name "
            "FROM foodlog WHERE age >= 21 GROUP BY kcal, name"
        )
        assert plan == golden("""
            Aggregate(keys=[calories(food_name(image_path)) AS kcal, food_name(image_path) AS name], aggs=[], group_by=[kcal, name])
              Filter(age >= 21)
                Scan(foodlog)
        """)

    def test_plan_without_udfs(self, db):
        plan = db.explain(
            "SELECT user_id, age FROM foodlog "
            "WHERE location = 'it''s' ORDER BY age DESC LIMIT 5"
        )
        assert plan == golden("""
            Limit(count=5)
              Sort(age DESC)
                Project(user_id, age)
                  Filter(location = 'it''s')
                    Scan(foodlog)
        """)

    def test_explain_matches_executed_plan(self, db):
        from repro.sqlext.plan import compile_plan, explain_plan

        sql = ("SELECT food_name(image_path) AS name, count(*) AS n "
               "FROM foodlog WHERE age > 52 GROUP BY name")
        plan = compile_plan(sql)
        db.execute(sql, executor="planned")
        assert compile_plan(sql) is plan
        assert db.explain(sql) == explain_plan(plan)


class TestUdfPlacement:
    def test_udf_conjunct_sees_only_the_rows_plain_conjuncts_kept(self):
        db = Database()
        db.create_table("t", [Column("a", "int"), Column("s", "str")])
        for a, s in [(5, "p"), (1, "q"), (7, "r"), (9, "p"), (2, "s"), (4, "t"), (8, "r")]:
            db.insert("t", a=a, s=s)
        received: list = []

        def tag_batch(values):
            received.extend(values)
            return [f"t:{v}" for v in values]

        db.udfs.register("tag", lambda v: f"t:{v}", batch_fn=tag_batch)
        sql = "SELECT a FROM t WHERE tag(s) = 't:r' AND a > 3"
        assert db.execute(sql).rows == [(7,), (8,)]
        assert received == ["p", "r", "t"]  # distinct s where a > 3, first-seen order
        assert db.execute(sql, executor="naive").rows == [(7,), (8,)]

    @pytest.mark.parametrize("udf_cache, calls", [(True, 6), (False, 9)])
    def test_a_repeated_call_is_a_cache_lookup(self, udf_cache, calls):
        db = Database(udf_cache=udf_cache)
        db.create_table("foodlog", [Column("user_id", "int"), Column("image_path", "str")])
        for user_id, path in enumerate(["a", "b", "a", "c"]):
            db.insert("foodlog", user_id=user_id, image_path=path)
        db.udfs.register("food_name", lambda path: path.upper())
        db.udfs.register("calories", lambda food: len(food))
        sql = ("SELECT calories(food_name(image_path)) AS kcal, food_name(image_path) AS name "
               "FROM foodlog GROUP BY kcal, name")
        result = db.execute(sql)
        # food_name and calories each once per distinct argument; the second
        # food_name call hits the cache, or pays again with the cache off.
        assert result.udf_calls == calls
        assert repr(result.rows) == repr(db.execute(sql, executor="naive").rows)


class TestTokenizerEdgeCases:
    def test_unary_minus_evaluates(self, db):
        db.insert("foodlog", user_id=1, age=-4, location="x", image_path="p")
        db.insert("foodlog", user_id=2, age=10, location="x", image_path="p")
        for executor in ("planned", "naive"):
            result = db.execute(
                "SELECT user_id FROM foodlog WHERE age < -3 ORDER BY user_id",
                executor=executor,
            )
            assert result.rows == [(1,)]

    def test_unary_minus_requires_number(self):
        database = Database()
        database.create_table("t", [Column("a", "int")])
        with pytest.raises(SQLParseError, match=r"unary '-'"):
            database.execute("SELECT a FROM t WHERE a > - x")

    def test_binary_minus_is_rejected_with_position(self):
        # ``a - 3`` is not in the grammar; the op token is reported with
        # its source position instead of a confusing mis-tokenization.
        database = Database()
        database.create_table("t", [Column("a", "int")])
        with pytest.raises(SQLParseError, match=r"position"):
            database.execute("SELECT a FROM t WHERE a - 3 > 1")

    def test_doubled_quote_roundtrips_through_explain(self, db):
        # The literal renders back in SQL form (quote doubled), and the
        # rendered text re-parses to the same value.
        from repro.sqlext.engine import parse_select

        plan = db.explain("SELECT user_id FROM foodlog WHERE location = 'it''s'")
        assert "location = 'it''s'" in plan
        reparsed = parse_select(
            "SELECT user_id FROM foodlog WHERE location = 'it''s'"
        )
        assert reparsed.where[0].right.value == "it's"

    def test_trailing_garbage_reports_position(self):
        database = Database()
        database.create_table("t", [Column("a", "int")])
        with pytest.raises(SQLParseError, match=r"trailing tokens at position 16"):
            database.execute("SELECT a FROM t 42")

    def test_tokenizer_error_reports_position(self):
        with pytest.raises(SQLParseError, match=r"position 16"):
            Database().execute("SELECT a FROM t ;;;!")

    def test_limit_rejects_negative_with_position(self):
        database = Database()
        database.create_table("t", [Column("a", "int")])
        with pytest.raises(SQLParseError, match=r"LIMIT"):
            database.execute("SELECT a FROM t LIMIT -1")


class TestUdfBatchCarving:
    @pytest.mark.parametrize("sizes", [None, (4, 10)])
    @pytest.mark.parametrize("n", [1, 15, 16, 63, 64, 65, 200])
    def test_chunks_take_the_largest_fitting_size(self, db, n, sizes):
        dispatcher = db.dispatcher
        if sizes is not None:
            dispatcher.BATCH_SIZES = sizes
        sizes = dispatcher.BATCH_SIZES
        args = list(range(n))
        chunks = dispatcher._chunks(args)
        assert [x for chunk in chunks for x in chunk] == args
        remaining = n
        for chunk in chunks:
            fitting = [size for size in sizes if size <= remaining]
            assert len(chunk) == (max(fitting) if fitting else remaining)
            remaining -= len(chunk)

    def test_default_sizes_pin(self, db):
        lengths = [len(c) for c in db.dispatcher._chunks(list(range(200)))]
        assert lengths == [64, 64, 64, 8]

    def test_removed_knobs_are_type_errors(self):
        for knob in ({"udf_batching": True}, {"batch_sizes": (1, 2)}, {"tau": 0.5}):
            with pytest.raises(TypeError):
                Database(**knob)
