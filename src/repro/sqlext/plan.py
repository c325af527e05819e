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

The optimizer (:mod:`repro.sqlext.optimizer`) rewrites this chain:
UDF calls move into explicit :class:`EvalUdf` operators, plain
predicates sink toward the :class:`Scan`, and the scan's column set is
pruned. :func:`explain_plan` renders any plan as stable indented text —
the golden-snapshot format used by ``tests/test_sql_plan.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.exceptions import SQLExecutionError
from repro.sqlext.engine import (
    _AGGREGATES,
    ColumnRef,
    Comparison,
    FuncCall,
    SelectStatement,
    render_expr,
)

__all__ = [
    "Scan",
    "Filter",
    "EvalUdf",
    "Project",
    "Aggregate",
    "Sort",
    "Limit",
    "build_plan",
    "explain_plan",
    "is_aggregate_call",
]


def is_aggregate_call(expr: Any) -> bool:
    """True when ``expr`` is a call to a builtin aggregate function."""
    return isinstance(expr, FuncCall) and expr.name in _AGGREGATES


@dataclass(frozen=True)
class Scan:
    """Read rows from a base table; ``columns=None`` means all columns."""

    table: str
    columns: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Filter:
    """Keep rows passing every predicate (evaluated in order, AND)."""

    child: Any
    predicates: tuple[Comparison, ...]


@dataclass(frozen=True)
class EvalUdf:
    """Materialize UDF results as generated columns.

    ``calls`` is an ordered tuple of ``(output_column, FuncCall)``
    pairs. This is the *batching* operator: the planned executor hands
    each call's distinct arguments over the surviving rows to the
    serving batcher and prediction cache at once, instead of one model
    call per row.
    """

    child: Any
    calls: tuple[tuple[str, FuncCall], ...]


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
    """Lower a parsed statement into the canonical unoptimized plan."""
    plan: Any = Scan(statement.table, None)
    if statement.where:
        plan = Filter(plan, statement.where)
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


def explain_plan(plan: Any) -> str:
    """Render a plan as stable indented text (one operator per line)."""
    lines: list[str] = []
    node = plan
    depth = 0

    def add(text: str) -> None:
        lines.append("  " * depth + text)

    while node is not None:
        child = None
        if isinstance(node, Limit):
            add(f"Limit(count={node.count})")
            child = node.child
        elif isinstance(node, Sort):
            keys = ", ".join(
                f"{name} {'DESC' if descending else 'ASC'}"
                for name, descending in node.keys
            )
            add(f"Sort({keys})")
            child = node.child
        elif isinstance(node, Project):
            outputs = ", ".join(
                _render_output(name, expr) for name, expr in node.outputs
            )
            add(f"Project({outputs})")
            child = node.child
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
            child = node.child
        elif isinstance(node, EvalUdf):
            calls = ", ".join(
                f"{name} := {render_expr(call)}" for name, call in node.calls
            )
            add(f"EvalUdf({calls})")
            child = node.child
        elif isinstance(node, Filter):
            preds = " AND ".join(render_expr(p) for p in node.predicates)
            add(f"Filter({preds})")
            child = node.child
        elif isinstance(node, Scan):
            if node.columns is None:
                add(f"Scan({node.table})")
            else:
                add(f"Scan({node.table}, columns=[{', '.join(node.columns)}])")
        else:
            add(f"?{node!r}")
        node = child
        depth += 1
    return "\n".join(lines)


def _render_output(name: str, expr: Any) -> str:
    rendered = render_expr(expr)
    return rendered if rendered == name else f"{rendered} AS {name}"
