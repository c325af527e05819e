"""Logical query plans for the SQL extension.

:func:`build_plan` lowers a parsed :class:`~repro.sqlext.engine.SelectStatement`
into a linear chain of operators::

    Limit -> Sort -> Project | Aggregate -> Filter -> Scan

performing the same statement-level validation as the naive interpreter
(GROUP BY coverage of non-aggregate select items) so both executors
reject malformed statements with identical errors. Column existence is
deliberately *not* checked here — the naive oracle resolves columns
lazily per row, so an unknown column in a query over an empty table
must succeed on both paths.

The plan makes one rewrite: the Filter runs the WHERE clause's
function-free conjuncts first and the ones calling a function after,
each group in textual order. The executor narrows the rows after each
conjunct, so a UDF only sees the rows every plain conjunct kept — the
Section 8 pushdown saving. UDF calls stay where the query wrote them.
A plan depends on the SQL text alone and is frozen, so
:func:`compile_plan` builds it once per text. :func:`explain_plan`
renders any plan as stable indented text — the golden-snapshot format
used by ``tests/test_sql_plan.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

from repro.exceptions import SQLExecutionError
from repro.sqlext.engine import (
    _AGGREGATES,
    ColumnRef,
    Comparison,
    FuncCall,
    SelectStatement,
    parse_select,
    render_expr,
)

__all__ = [
    "Scan",
    "Filter",
    "Project",
    "Aggregate",
    "Sort",
    "Limit",
    "build_plan",
    "compile_plan",
    "explain_plan",
    "is_aggregate_call",
]


def is_aggregate_call(expr: Any) -> bool:
    """True when ``expr`` is a call to a builtin aggregate function."""
    return isinstance(expr, FuncCall) and expr.name in _AGGREGATES


def _calls(expr: Any) -> bool:
    """True when ``expr`` applies a function anywhere inside it."""
    if isinstance(expr, Comparison):
        return _calls(expr.left) or _calls(expr.right)
    return isinstance(expr, FuncCall)


@dataclass(frozen=True)
class Scan:
    """Read every row of a base table."""

    table: str


@dataclass(frozen=True)
class Filter:
    """Keep rows passing every predicate (evaluated in order, AND)."""

    child: Any
    predicates: tuple[Comparison, ...]


@dataclass(frozen=True)
class Project:
    """Compute the final select-list expressions as named outputs."""

    child: Any
    outputs: tuple[tuple[str, Any], ...]  # (name, expr)


@dataclass(frozen=True)
class Aggregate:
    """Group rows and fold aggregates, mirroring the naive interpreter.

    ``outputs`` preserves select-list order; each entry is
    ``(name, kind, expr)`` with kind ``"key"`` (grouping expression) or
    ``"agg"`` (aggregate call). Grouping uses the evaluated key
    expressions only — exactly like the oracle, the ``group_by`` names
    themselves are validation metadata, not an execution input.
    """

    child: Any
    outputs: tuple[tuple[str, str, Any], ...]
    group_by: tuple[str, ...]


@dataclass(frozen=True)
class Sort:
    """Order result rows by named output columns (stable, right-to-left)."""

    child: Any
    keys: tuple[tuple[str, bool], ...]  # (column name, descending)


@dataclass(frozen=True)
class Limit:
    """Truncate the result to the first ``count`` rows."""

    child: Any
    count: int


def build_plan(statement: SelectStatement) -> Any:
    """Lower a parsed statement into its plan (see the module docs)."""
    plan: Any = Scan(statement.table)
    if statement.where:
        # A stable sort: function-free conjuncts first, in textual order.
        plan = Filter(plan, tuple(sorted(statement.where, key=_calls)))
    has_aggregate = any(is_aggregate_call(item.expr) for item in statement.items)
    if has_aggregate or statement.group_by:
        group_names = set(statement.group_by)
        outputs = []
        for item in statement.items:
            if is_aggregate_call(item.expr):
                outputs.append((item.output_name(), "agg", item.expr))
                continue
            if statement.group_by:
                if item.output_name() not in group_names and not (
                    isinstance(item.expr, ColumnRef)
                    and item.expr.name in group_names
                ):
                    raise SQLExecutionError(
                        f"{item.output_name()!r} must appear in GROUP BY"
                    )
            else:
                raise SQLExecutionError(
                    "non-aggregate select items require GROUP BY"
                )
            outputs.append((item.output_name(), "key", item.expr))
        plan = Aggregate(plan, tuple(outputs), statement.group_by)
    else:
        plan = Project(
            plan,
            tuple((item.output_name(), item.expr) for item in statement.items),
        )
    if statement.order_by:
        plan = Sort(plan, statement.order_by)
    if statement.limit is not None:
        plan = Limit(plan, statement.limit)
    return plan


@lru_cache(maxsize=256)
def compile_plan(sql: str) -> Any:
    """The plan of one SELECT, built once per SQL text."""
    return build_plan(parse_select(sql))


def explain_plan(plan: Any) -> str:
    """Render a plan as stable indented text (one operator per line)."""
    lines: list[str] = []
    node = plan
    depth = 0

    def add(text: str) -> None:
        lines.append("  " * depth + text)

    while node is not None:
        if isinstance(node, Limit):
            add(f"Limit(count={node.count})")
        elif isinstance(node, Sort):
            keys = ", ".join(
                f"{name} {'DESC' if descending else 'ASC'}"
                for name, descending in node.keys
            )
            add(f"Sort({keys})")
        elif isinstance(node, Project):
            outputs = ", ".join(
                _render_output(name, expr) for name, expr in node.outputs
            )
            add(f"Project({outputs})")
        elif isinstance(node, Aggregate):
            keys = [
                _render_output(name, expr)
                for name, kind, expr in node.outputs if kind == "key"
            ]
            aggs = [
                _render_output(name, expr)
                for name, kind, expr in node.outputs if kind == "agg"
            ]
            group = ", ".join(node.group_by)
            add(
                f"Aggregate(keys=[{', '.join(keys)}], "
                f"aggs=[{', '.join(aggs)}], group_by=[{group}])"
            )
        elif isinstance(node, Filter):
            preds = " AND ".join(render_expr(p) for p in node.predicates)
            add(f"Filter({preds})")
        elif isinstance(node, Scan):
            add(f"Scan({node.table})")
        else:
            add(f"?{node!r}")
        node = getattr(node, "child", None)
        depth += 1
    return "\n".join(lines)


def _render_output(name: str, expr: Any) -> str:
    rendered = render_expr(expr)
    return rendered if rendered == name else f"{rendered} AS {name}"
