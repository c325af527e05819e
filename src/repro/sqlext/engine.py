"""SQL text handling: tokenizer, AST, parser, and the ``Database`` facade.

Grammar (keywords case-insensitive)::

    SELECT item (',' item)* FROM ident [WHERE cond] [GROUP BY ident+]
        [ORDER BY ident [ASC|DESC] (',' ident [ASC|DESC])*] [LIMIT n]
    item  := expr [AS ident]
    expr  := COUNT '(' '*' ')' | func '(' expr ')' | ident | literal
    cond  := cmp (AND cmp)*
    cmp   := expr op expr        op in = != <> < <= > >=

Aggregates: ``count``, ``sum``, ``avg``, ``min``, ``max``. Any other
function name resolves against the UDF registry.

Execution lives in :mod:`repro.sqlext.exec`: :meth:`Database.execute`
compiles the parsed statement into a logical plan
(:mod:`repro.sqlext.plan`; statement and plan are memoised per SQL
text) and runs it on the column-at-a-time
:class:`~repro.sqlext.exec.PlannedExecutor`, where each UDF call
dispatches the distinct arguments of the rows it sees through the
serving batcher and prediction cache. The original row-at-a-time
interpreter survives as :class:`~repro.sqlext.exec.NaiveExecutor` — the
differential-test oracle — selectable with ``executor="naive"``.

Tokenizer notes: ``-`` is its own operator token (a leading minus on a
number literal is resolved by the *parser* as unary minus, so ``x>-3``
and a future binary minus cannot be confused), string literals escape
quotes by doubling (``'it''s'``), and every token carries its source
position so parse errors can point at the offending character.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Callable

from repro.exceptions import ConfigurationError, SQLExecutionError, SQLParseError
from repro.sqlext.table import Column, Table
from repro.sqlext.udf import UdfRegistry

__all__ = ["Database", "ResultSet"]

_AGGREGATES = ("count", "sum", "avg", "min", "max")
_EXECUTORS = ("planned", "naive")

_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<number>\d+\.\d+|\d+)"
    r"|(?P<string>'(?:[^']|'')*')"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<op><=|>=|!=|<>|=|<|>|-)"
    r"|(?P<punct>[(),*])"
    r")"
)

#: the comparison operators the grammar accepts (``-`` is an op *token*
#: but only valid as unary minus inside an expression).
COMPARISON_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")


def _tokenize_spans(sql: str) -> list[tuple[str, str, int]]:
    """Tokenize into ``(kind, value, position)`` triples.

    ``position`` is the 0-based offset of the token's first character in
    the stripped statement text, so :class:`SQLParseError` can report
    where things went wrong.
    """
    tokens: list[tuple[str, str, int]] = []
    pos = 0
    text = sql.strip().rstrip(";")
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(text, pos)
        if match is None or match.end() == match.start():
            raise SQLParseError(
                f"cannot tokenise at position {pos}: {text[pos:pos+20]!r}"
            )
        pos = match.end()
        for kind in ("number", "string", "ident", "op", "punct"):
            value = match.group(kind)
            if value is not None:
                tokens.append((kind, value, match.start(kind)))
                break
    return tokens


# ----------------------------------------------------------------------
# AST
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnRef:
    """A reference to a named column."""

    name: str


@dataclass(frozen=True)
class Literal:
    """A constant value (number or string)."""

    value: Any


@dataclass(frozen=True)
class FuncCall:
    """A function application: an aggregate or a registered UDF."""

    name: str
    arg: Any  # ColumnRef | Literal | FuncCall | "*"


@dataclass(frozen=True)
class Comparison:
    """One ``left op right`` predicate from a WHERE conjunction."""

    left: Any
    op: str
    right: Any


@dataclass(frozen=True)
class SelectItem:
    """One select-list entry: an expression plus optional alias."""

    expr: Any
    alias: str | None

    def output_name(self) -> str:
        """The result-column name this item produces."""
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.name
        if isinstance(self.expr, FuncCall):
            inner = "*" if self.expr.arg == "*" else _expr_name(self.expr.arg)
            return f"{self.expr.name}({inner})"
        return "expr"


def _expr_name(expr: Any) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Literal):
        return repr(expr.value)
    if isinstance(expr, FuncCall):
        return f"{expr.name}({'*' if expr.arg == '*' else _expr_name(expr.arg)})"
    return "expr"


def render_expr(expr: Any) -> str:
    """Render an expression back to SQL text (used by ``explain()``).

    Unlike :func:`_expr_name` (which feeds result-column *names* and is
    frozen for backward compatibility), this renders valid SQL: string
    literals are single-quoted with embedded quotes doubled, so an
    ``explain()`` line round-trips through the tokenizer.
    """
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Literal):
        if isinstance(expr.value, str):
            return "'" + expr.value.replace("'", "''") + "'"
        return repr(expr.value)
    if isinstance(expr, FuncCall):
        inner = "*" if expr.arg == "*" else render_expr(expr.arg)
        return f"{expr.name}({inner})"
    if isinstance(expr, Comparison):
        return f"{render_expr(expr.left)} {expr.op} {render_expr(expr.right)}"
    return str(expr)


@dataclass(frozen=True)
class SelectStatement:
    """A parsed SELECT: items, source table and the trailing clauses."""

    items: tuple[SelectItem, ...]
    table: str
    where: tuple[Comparison, ...]
    group_by: tuple[str, ...]
    order_by: tuple[tuple[str, bool], ...] = ()  # (name, descending)
    limit: int | None = None


class _Parser:
    """Recursive-descent parser over the position-tagged token list."""

    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.pos = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _peek_pair(self) -> tuple[str, str] | None:
        token = self._peek()
        return (token[0], token[1]) if token is not None else None

    def _next(self) -> tuple[str, str, int]:
        token = self._peek()
        if token is None:
            raise SQLParseError("unexpected end of statement")
        self.pos += 1
        return token

    def _expect_keyword(self, word: str) -> None:
        kind, value, pos = self._next()
        if kind != "ident" or value.lower() != word:
            raise SQLParseError(
                f"expected {word.upper()}, got {value!r} at position {pos}"
            )

    def _at_keyword(self, word: str) -> bool:
        token = self._peek()
        return token is not None and token[0] == "ident" and token[1].lower() == word

    def parse_select(self) -> SelectStatement:
        """Parse one full SELECT statement (rejecting trailing tokens)."""
        self._expect_keyword("select")
        items = [self._parse_item()]
        while self._peek_pair() == ("punct", ","):
            self._next()
            items.append(self._parse_item())
        self._expect_keyword("from")
        kind, table, pos = self._next()
        if kind != "ident":
            raise SQLParseError(f"expected table name, got {table!r} at position {pos}")
        where: list[Comparison] = []
        if self._at_keyword("where"):
            self._next()
            where.append(self._parse_comparison())
            while self._at_keyword("and"):
                self._next()
                where.append(self._parse_comparison())
        group_by: list[str] = []
        if self._at_keyword("group"):
            self._next()
            self._expect_keyword("by")
            group_by.append(self._parse_group_column())
            while self._peek_pair() == ("punct", ","):
                self._next()
                group_by.append(self._parse_group_column())
        order_by: list[tuple[str, bool]] = []
        if self._at_keyword("order"):
            self._next()
            self._expect_keyword("by")
            order_by.append(self._parse_order_term())
            while self._peek_pair() == ("punct", ","):
                self._next()
                order_by.append(self._parse_order_term())
        limit: int | None = None
        if self._at_keyword("limit"):
            self._next()
            kind, value, pos = self._next()
            if kind != "number" or "." in value:
                raise SQLParseError(
                    f"LIMIT expects a non-negative integer, "
                    f"got {value!r} at position {pos}"
                )
            limit = int(value)
        trailing = self._peek()
        if trailing is not None:
            rest = [(kind, value) for kind, value, _ in self.tokens[self.pos:]]
            raise SQLParseError(
                f"trailing tokens at position {trailing[2]}: {rest}"
            )
        return SelectStatement(tuple(items), table, tuple(where), tuple(group_by),
                               tuple(order_by), limit)

    def _parse_group_column(self) -> str:
        kind, name, pos = self._next()
        if kind != "ident":
            raise SQLParseError(
                f"expected GROUP BY column, got {name!r} at position {pos}"
            )
        return name

    def _parse_order_term(self) -> tuple[str, bool]:
        kind, name, pos = self._next()
        if kind != "ident":
            raise SQLParseError(
                f"expected ORDER BY column, got {name!r} at position {pos}"
            )
        descending = False
        if self._at_keyword("desc"):
            self._next()
            descending = True
        elif self._at_keyword("asc"):
            self._next()
        return name, descending

    def _parse_item(self) -> SelectItem:
        expr = self._parse_expr()
        alias = None
        if self._at_keyword("as"):
            self._next()
            kind, alias_token, pos = self._next()
            if kind != "ident":
                raise SQLParseError(
                    f"expected alias, got {alias_token!r} at position {pos}"
                )
            alias = alias_token
        return SelectItem(expr, alias)

    def _parse_expr(self) -> Any:
        kind, value, pos = self._next()
        if kind == "op" and value == "-":
            # Unary minus: the tokenizer never folds the sign into the
            # number, so negative literals and any future binary minus
            # cannot be confused.
            kind, value, num_pos = self._next()
            if kind != "number":
                raise SQLParseError(
                    f"expected a number after unary '-', got {value!r} "
                    f"at position {num_pos}"
                )
            return Literal(-float(value) if "." in value else -int(value))
        if kind == "number":
            return Literal(float(value) if "." in value else int(value))
        if kind == "string":
            return Literal(value[1:-1].replace("''", "'"))
        if kind == "ident":
            if self._peek_pair() == ("punct", "("):
                self._next()
                if self._peek_pair() == ("punct", "*"):
                    self._next()
                    arg: Any = "*"
                else:
                    arg = self._parse_expr()
                closing = self._next()
                if (closing[0], closing[1]) != ("punct", ")"):
                    raise SQLParseError(
                        f"expected ')', got {closing[1]!r} at position {closing[2]}"
                    )
                return FuncCall(value.lower(), arg)
            return ColumnRef(value)
        raise SQLParseError(f"unexpected token {value!r} at position {pos}")

    def _parse_comparison(self) -> Comparison:
        left = self._parse_expr()
        kind, op, pos = self._next()
        if kind != "op" or op not in COMPARISON_OPS:
            raise SQLParseError(
                f"expected comparison operator, got {op!r} at position {pos}"
            )
        right = self._parse_expr()
        return Comparison(left, op, right)


@lru_cache(maxsize=256)
def parse_select(sql: str) -> SelectStatement:
    """Parse one SELECT statement from SQL text (memoised: it is frozen)."""
    return _Parser(_tokenize_spans(sql)).parse_select()


# ----------------------------------------------------------------------
# results + shared evaluation pieces
# ----------------------------------------------------------------------


@dataclass
class ResultSet:
    """Query output: column names plus row tuples.

    ``udf_calls`` counts per-argument UDF invocations the query made;
    on the planned executor ``udf_batches`` counts how many batched
    dispatches those rode in and ``cache_hits`` how many arguments were
    served from the prediction cache without any dispatch at all.
    """

    columns: list[str]
    rows: list[tuple]
    udf_calls: int = 0
    udf_batches: int = 0
    cache_hits: int = 0
    executor: str = ""

    def __len__(self) -> int:
        return len(self.rows)


_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


class Database:
    """Tables + UDF registry + query execution.

    ``execute`` compiles each SELECT to a logical plan and runs it on
    the column executor, where each UDF call dispatches the distinct
    arguments of the rows it sees in hardware batch sizes through the
    prediction cache (``udf_cache=False`` keeps within-batch dedup but
    remembers nothing across calls). Its counters are bound here and in
    ``create_table``, so a query looks none up.
    """

    def __init__(self, udf_cache: bool = True, cache_capacity: int = 1024):
        from repro import telemetry
        from repro.sqlext.exec import UdfBatchDispatcher

        self.tables: dict[str, Table] = {}
        self.udfs = UdfRegistry()
        self.dispatcher = UdfBatchDispatcher(
            self.udfs, cache_capacity=cache_capacity if udf_cache else 0
        )
        registry = telemetry.get_registry()
        self._queries, self._udf_calls = (
            {name: telemetry.Counter(*family, registry).labels(executor=name)
             for name in _EXECUTORS}
            for family in (
                ("repro_sql_queries_total", "SQL queries executed, by executor."),
                ("repro_sql_udf_calls_total",
                 "Per-argument UDF invocations made by SQL queries."),
            )
        )
        self._rows_scanned = telemetry.Counter(
            "repro_sql_rows_scanned_total", "Base-table rows scanned by SQL queries.",
            registry,
        )
        self._scanned: dict[str, Any] = {}  # per table, bound in ``create_table``

    def create_table(self, name: str, columns: list[Column],
                     primary_key: tuple[str, ...] = ()) -> Table:
        """Create a new table (name must be unused)."""
        if name in self.tables:
            raise SQLExecutionError(f"table {name!r} already exists")
        table = Table(name=name, columns=columns, primary_key=primary_key)
        self.tables[name] = table
        self._scanned[name] = self._rows_scanned.labels(table=name)
        return table

    def insert(self, table_name: str, **values: Any) -> None:
        """Insert one row into the named table."""
        self._table(table_name).insert(**values)

    def _table(self, name: str) -> Table:
        if name in self.tables:
            return self.tables[name]
        lowered = name.lower()
        if lowered in self.tables:
            return self.tables[lowered]
        raise SQLExecutionError(f"unknown table {name!r}")

    # ------------------------------------------------------------------

    def execute(self, sql: str, executor: str | None = None) -> ResultSet:
        """Parse and run one SELECT statement.

        ``executor`` selects ``"planned"`` (the default, also for None:
        logical plan + batched UDF dispatch) or ``"naive"`` (the original
        row-at-a-time interpreter, kept as the differential-test oracle).
        """
        from repro.sqlext.exec import NaiveExecutor, PlannedExecutor
        from repro.sqlext.plan import compile_plan

        statement = parse_select(sql)
        table = self._table(statement.table)
        which = executor or "planned"
        calls_before = self.udfs.calls
        batches_before = self.dispatcher.batches_dispatched
        hits_before = self.dispatcher.cache_hits
        if which == "naive":
            result = NaiveExecutor(self.udfs).execute(statement, table)
        elif which == "planned":
            result = PlannedExecutor(table, self.dispatcher).execute(compile_plan(sql))
        else:
            raise ConfigurationError(
                f"executor must be 'planned' or 'naive', got {which!r}"
            )
        result.executor = which
        result.udf_calls = self.udfs.calls - calls_before
        result.udf_batches = self.dispatcher.batches_dispatched - batches_before
        result.cache_hits = self.dispatcher.cache_hits - hits_before
        self._queries[which].inc()
        self._scanned[table.name].inc(len(table))
        if result.udf_calls:
            self._udf_calls[which].inc(result.udf_calls)
        return result

    def explain(self, sql: str) -> str:
        """The textual logical plan ``execute`` would run for ``sql``."""
        from repro.sqlext.plan import compile_plan, explain_plan

        return explain_plan(compile_plan(sql))

    def invalidate_udf_cache(self) -> None:
        """Drop every cached UDF result (call after re-deploying models)."""
        self.dispatcher.invalidate()
