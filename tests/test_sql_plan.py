"""Golden-plan snapshots and tokenizer edge cases.

The textual ``explain()`` format is a stable contract: these tests pin
exact plans for representative queries, proving the optimizer passes
fired (predicate pushdown, projection pruning, common-UDF-subexpression
elimination) — and that pushdown is *skipped* for predicates that read
a UDF output. The tokenizer section covers the edge cases the random
query generator surfaced: unary minus vs negative literals, doubled
single-quote escapes round-tripping through ``explain()``, and parse
errors that report source positions.
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
    def test_pushdown_and_pruning_under_aggregate(self, db):
        plan = db.explain(
            "SELECT food_name(image_path) AS name, count(*) AS n "
            "FROM foodlog WHERE age > 52 AND location = 'sg' "
            "GROUP BY name ORDER BY n DESC LIMIT 3"
        )
        assert plan == golden("""
            Limit(count=3)
              Sort(n DESC)
                Aggregate(keys=[__udf0 AS name], aggs=[count(*) AS n], group_by=[name])
                  EvalUdf(__udf0 := food_name(image_path))
                    Filter(age > 52 AND location = 'sg')
                      Scan(foodlog, columns=[age, image_path, location])
        """)

    def test_pushdown_skipped_for_predicate_on_udf_output(self, db):
        # Regression: ``age > 30`` sinks below the UDF stage, but the
        # predicate reading the UDF's output MUST stay above it — it
        # reads a column that does not exist before EvalUdf runs.
        plan = db.explain(
            "SELECT user_id FROM foodlog "
            "WHERE food_name(image_path) = 'laksa' AND age > 30"
        )
        assert plan == golden("""
            Project(user_id)
              Filter(__udf0 = 'laksa')
                EvalUdf(__udf0 := food_name(image_path))
                  Filter(age > 30)
                    Scan(foodlog, columns=[age, image_path, user_id])
        """)

    def test_common_udf_subexpression_eliminated(self, db):
        # ``food_name(image_path)`` appears twice (once nested inside
        # ``calories``) but is materialized exactly once as __udf0.
        plan = db.explain(
            "SELECT calories(food_name(image_path)) AS kcal, "
            "food_name(image_path) AS name "
            "FROM foodlog WHERE age >= 21 GROUP BY kcal, name"
        )
        assert plan == golden("""
            Aggregate(keys=[__udf1 AS kcal, __udf0 AS name], aggs=[], group_by=[kcal, name])
              EvalUdf(__udf0 := food_name(image_path), __udf1 := calories(__udf0))
                Filter(age >= 21)
                  Scan(foodlog, columns=[age, image_path])
        """)

    def test_pruning_without_udfs(self, db):
        plan = db.explain(
            "SELECT user_id, age FROM foodlog "
            "WHERE location = 'it''s' ORDER BY age DESC LIMIT 5"
        )
        assert plan == golden("""
            Limit(count=5)
              Sort(age DESC)
                Project(user_id, age)
                  Filter(location = 'it''s')
                    Scan(foodlog, columns=[age, location, user_id])
        """)

    def test_canonical_plan_is_unrewritten(self, db):
        plan = db.explain(
            "SELECT user_id FROM foodlog "
            "WHERE food_name(image_path) = 'laksa' AND age > 30",
            optimize=False,
        )
        assert plan == golden("""
            Project(user_id)
              Filter(food_name(image_path) = 'laksa' AND age > 30)
                Scan(foodlog)
        """)

    def test_optimized_explain_matches_executed_plan(self, db):
        from repro.sqlext.plan import explain_plan

        sql = ("SELECT food_name(image_path) AS name, count(*) AS n "
               "FROM foodlog WHERE age > 52 GROUP BY name")
        explained = db.explain(sql)
        db.execute(sql, executor="planned")
        assert explain_plan(db._planned.last_plan) == explained


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
