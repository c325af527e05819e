"""Tests for the mini SQL engine and UDF integration."""

import pytest

from repro.exceptions import SQLExecutionError, SQLParseError
from repro.sqlext import Column, Database


@pytest.fixture()
def db():
    database = Database()
    database.create_table(
        "foodlog",
        [
            Column("user_id", "integer"),
            Column("age", "integer", not_null=True),
            Column("location", "text", not_null=True),
            Column("image_path", "text", not_null=True),
        ],
        primary_key=("user_id",),
    )
    rows = [
        (1, 25, "sg", "a.npy"),
        (2, 34, "sg", "b.npy"),
        (3, 41, "cn", "a.npy"),
        (4, 58, "cn", "c.npy"),
        (5, 63, "sg", "b.npy"),
    ]
    for user_id, age, location, path in rows:
        database.insert("foodlog", user_id=user_id, age=age, location=location,
                        image_path=path)
    return database


class TestTable:
    def test_type_coercion(self, db):
        db.insert("foodlog", user_id="6", age="30", location="us", image_path="d.npy")
        assert db.tables["foodlog"].rows[-1]["user_id"] == 6

    def test_not_null_enforced(self, db):
        with pytest.raises(SQLExecutionError, match="NOT NULL"):
            db.insert("foodlog", user_id=7, age=None, location="us", image_path="x")

    def test_primary_key_uniqueness(self, db):
        with pytest.raises(SQLExecutionError, match="primary key"):
            db.insert("foodlog", user_id=1, age=20, location="us", image_path="x")

    def test_primary_key_refuses_null(self, db):
        table = db.tables["foodlog"]
        keys, codes = set(table._pk_index), table.encoded("age")[0].tolist()
        for _ in range(2):  # the second NULL is refused as NULL, not as a duplicate
            with pytest.raises(SQLExecutionError, match="primary key column 'user_id'.*NOT NULL"):
                db.insert("foodlog", user_id=None, age=20, location="us", image_path="x")
        assert len(table) == 5 and table._pk_index == keys  # nothing was touched
        assert table.encoded("age")[0].tolist() == codes

    def test_composite_primary_key_refuses_null(self):
        # the key examples/food_logging.py declares
        database = Database()
        database.create_table(
            "foodlog",
            [Column("user_id", "integer"), Column("age", "integer", not_null=True),
             Column("time", "text", not_null=True)],
            primary_key=("user_id", "time"),
        )
        database.insert("foodlog", user_id=1, age=30, time="2018-04-01")
        database.insert("foodlog", user_id=1, age=31, time="2018-04-02")
        with pytest.raises(SQLExecutionError, match="primary key column 'user_id'.*NOT NULL"):
            database.insert("foodlog", user_id=None, age=30, time="2018-04-01")
        with pytest.raises(SQLExecutionError, match="NOT NULL"):
            database.insert("foodlog", user_id=2, age=30, time=None)
        assert len(database.tables["foodlog"]) == 2

    def test_unknown_column_rejected(self, db):
        with pytest.raises(SQLExecutionError, match="unknown columns"):
            db.insert("foodlog", user_id=9, age=20, location="us", image_path="x",
                      ghost=1)


class TestSelect:
    def test_simple_projection(self, db):
        result = db.execute("SELECT user_id, age FROM foodlog")
        assert result.columns == ["user_id", "age"]
        assert len(result) == 5

    def test_where_filters(self, db):
        result = db.execute("SELECT user_id FROM foodlog WHERE age > 40")
        assert sorted(row[0] for row in result.rows) == [3, 4, 5]

    def test_where_and(self, db):
        result = db.execute(
            "SELECT user_id FROM foodlog WHERE age > 30 AND location = 'sg'"
        )
        assert sorted(row[0] for row in result.rows) == [2, 5]

    def test_string_literal_with_quote(self, db):
        db.insert("foodlog", user_id=9, age=20, location="o'brien", image_path="x")
        result = db.execute("SELECT user_id FROM foodlog WHERE location = 'o''brien'")
        assert result.rows == [(9,)]

    def test_comparison_operators(self, db):
        assert len(db.execute("SELECT user_id FROM foodlog WHERE age <= 34")) == 2
        assert len(db.execute("SELECT user_id FROM foodlog WHERE age != 25")) == 4
        assert len(db.execute("SELECT user_id FROM foodlog WHERE age <> 25")) == 4

    def test_count_star(self, db):
        result = db.execute("SELECT count(*) FROM foodlog")
        assert result.rows == [(5,)]

    def test_aggregates(self, db):
        result = db.execute("SELECT min(age), max(age), avg(age), sum(age) FROM foodlog")
        low, high, mean, total = result.rows[0]
        assert (low, high, total) == (25, 63, 221)
        assert mean == pytest.approx(221 / 5)

    def test_group_by_with_count(self, db):
        result = db.execute(
            "SELECT location, count(*) FROM foodlog GROUP BY location"
        )
        assert dict(result.rows) == {"sg": 3, "cn": 2}

    def test_group_by_alias(self, db):
        result = db.execute(
            "SELECT location AS loc, avg(age) FROM foodlog GROUP BY loc"
        )
        rows = dict(result.rows)
        assert rows["cn"] == pytest.approx(49.5)

    def test_non_aggregate_requires_group_by(self, db):
        with pytest.raises(SQLExecutionError, match="GROUP BY"):
            db.execute("SELECT location, count(*) FROM foodlog")

    def test_keywords_case_insensitive(self, db):
        result = db.execute("select COUNT(*) from foodlog where AGE > 40")
        assert result.rows == [(3,)]


class TestParserErrors:
    def test_garbage_rejected(self, db):
        with pytest.raises(SQLParseError):
            db.execute("SELEKT * FROM foodlog")

    def test_trailing_tokens_rejected(self, db):
        with pytest.raises(SQLParseError, match="trailing"):
            db.execute("SELECT age FROM foodlog 42")

    def test_missing_from_rejected(self, db):
        with pytest.raises(SQLParseError):
            db.execute("SELECT age")

    def test_unknown_table(self, db):
        with pytest.raises(SQLExecutionError, match="unknown table"):
            db.execute("SELECT x FROM ghost")

    def test_unknown_column(self, db):
        with pytest.raises(SQLExecutionError, match="unknown column"):
            db.execute("SELECT ghost FROM foodlog")


class TestUdf:
    def test_udf_in_select(self, db):
        db.udfs.register("double_age", lambda age: age * 2)
        result = db.execute("SELECT double_age(age) FROM foodlog WHERE user_id = 1")
        assert result.rows == [(50,)]

    def test_udf_called_only_on_filtered_rows(self, db):
        """The Section 8 saving: WHERE runs before select-list UDFs."""
        calls = []

        def classify(path):
            calls.append(path)
            return "noodle"

        db.udfs.register("food_name", classify)
        result = db.execute(
            "SELECT food_name(image_path) AS name, count(*) FROM foodlog "
            "WHERE age > 52 GROUP BY name"
        )
        assert len(calls) == 2  # only user 4 and 5 pass the filter
        assert result.udf_calls == 2
        assert result.rows == [("noodle", 2)]

    def test_udf_call_counters(self, db):
        db.udfs.register("f", lambda x: x)
        result = db.execute("SELECT f(age) FROM foodlog")
        assert result.udf_calls == 5

    def test_group_by_udf_alias(self, db):
        db.udfs.register("age_band", lambda age: "young" if age < 40 else "old")
        result = db.execute(
            "SELECT age_band(age) AS band, count(*) FROM foodlog GROUP BY band"
        )
        assert dict(result.rows) == {"young": 2, "old": 3}

    def test_unknown_function(self, db):
        with pytest.raises(SQLExecutionError, match="unknown function"):
            db.execute("SELECT ghost(age) FROM foodlog")

    def test_duplicate_registration_rejected(self, db):
        db.udfs.register("f", lambda x: x)
        with pytest.raises(SQLExecutionError):
            db.udfs.register("F", lambda x: x)

    def test_udf_in_where(self, db):
        db.udfs.register("is_sg", lambda loc: 1 if loc == "sg" else 0)
        result = db.execute("SELECT user_id FROM foodlog WHERE is_sg(location) = 1")
        assert len(result) == 3


class TestTokenizerProperties:
    """Property-style checks over the SQL tokenizer."""

    def test_identifier_roundtrip(self, db):
        from hypothesis import given
        from hypothesis import strategies as st
        from repro.sqlext.engine import _tokenize_spans

        @given(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True))
        def check(ident):
            tokens = _tokenize_spans(f"SELECT {ident} FROM t")
            assert ("ident", ident) in [(kind, value) for kind, value, _ in tokens]

        check()

    def test_number_parsing(self):
        # The minus is its own operator token — the parser applies it
        # as unary minus, so a negative literal can never be confused
        # with a binary minus between two tokens.
        from repro.sqlext.engine import _tokenize_spans, parse_select
        from repro.sqlext.engine import Comparison, Literal

        tokens = [(kind, value) for kind, value, _ in
                  _tokenize_spans("SELECT a FROM t WHERE x > -3.5")]
        assert ("op", "-") in tokens
        assert ("number", "3.5") in tokens
        assert ("number", "-3.5") not in tokens
        statement = parse_select("SELECT a FROM t WHERE x > -3.5")
        assert statement.where[0] == Comparison(
            statement.where[0].left, ">", Literal(-3.5)
        )

    def test_string_with_doubled_quotes(self):
        from repro.sqlext.engine import _tokenize_spans

        tokens = [(kind, value) for kind, value, _ in
                  _tokenize_spans("SELECT a FROM t WHERE s = 'it''s'")]
        assert ("string", "'it''s'") in tokens

    def test_semicolon_stripped(self, db):
        assert db.execute("SELECT count(*) FROM foodlog;").rows == [(5,)]


class TestNullSemantics:
    """A primary key refuses NULL, so the NULLs sit in a nullable non-key column."""

    @pytest.fixture()
    def meals(self, db):
        db.create_table("meals", [Column("user_id", "integer"), Column("kcal", "integer")],
                        primary_key=("user_id",))
        db.insert("meals", user_id=1, kcal=300)
        return db

    def test_null_fails_comparisons(self, meals):
        # kcal is nullable; NULL rows never pass a WHERE on that column
        meals.insert("meals", user_id=2, kcal=None)
        for executor in ("planned", "naive"):
            result = meals.execute("SELECT user_id FROM meals WHERE kcal >= 0",
                                   executor=executor)
            assert result.rows == [(1,)]

    def test_aggregates_skip_nulls(self, meals):
        meals.insert("meals", user_id=2, kcal=None)
        for executor in ("planned", "naive"):
            result = meals.execute("SELECT count(kcal), count(*) FROM meals",
                                   executor=executor)
            non_null, total = result.rows[0]
            assert total == non_null + 1


class TestOrderByLimit:
    def test_order_by_ascending(self, db):
        result = db.execute("SELECT user_id, age FROM foodlog ORDER BY age")
        ages = [row[1] for row in result.rows]
        assert ages == sorted(ages)

    def test_order_by_descending(self, db):
        result = db.execute("SELECT age FROM foodlog ORDER BY age DESC")
        ages = [row[0] for row in result.rows]
        assert ages == sorted(ages, reverse=True)

    def test_limit(self, db):
        result = db.execute("SELECT user_id FROM foodlog ORDER BY user_id LIMIT 2")
        assert result.rows == [(1,), (2,)]

    def test_limit_zero(self, db):
        assert db.execute("SELECT user_id FROM foodlog LIMIT 0").rows == []

    def test_order_by_alias(self, db):
        result = db.execute(
            "SELECT location AS loc, count(*) AS n FROM foodlog "
            "GROUP BY loc ORDER BY n DESC LIMIT 1"
        )
        assert result.rows == [("sg", 3)]

    def test_order_by_multiple_keys(self, db):
        result = db.execute(
            "SELECT location, age FROM foodlog ORDER BY location, age DESC"
        )
        rows = result.rows
        # grouped by location ascending, ages descending within each
        assert rows[0][0] <= rows[-1][0]
        cn_ages = [age for loc, age in rows if loc == "cn"]
        assert cn_ages == sorted(cn_ages, reverse=True)

    def test_order_by_unknown_column_rejected(self, db):
        with pytest.raises(SQLExecutionError, match="ORDER BY"):
            db.execute("SELECT age FROM foodlog ORDER BY ghost")

    def test_bad_limit_rejected(self, db):
        with pytest.raises(SQLParseError, match="LIMIT"):
            db.execute("SELECT age FROM foodlog LIMIT 2.5")
