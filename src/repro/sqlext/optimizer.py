"""Rewrite passes over logical plans.

:func:`optimize_plan` runs three passes in a fixed order:

1. :func:`extract_udfs` — every non-aggregate function call is hoisted
   out of predicates and select expressions into an explicit
   :class:`~repro.sqlext.plan.EvalUdf` operator that materializes the
   result as a generated ``__udf<N>`` column. Duplicate calls (same
   function, same rewritten argument) share one generated column —
   common-UDF-subexpression elimination. WHERE predicates keep their
   textual order as a *cascade* of Filter stages so a UDF guarding a
   later predicate only ever runs on rows that survived the earlier
   ones — the planned path can then never make more UDF calls than the
   short-circuiting naive oracle. Select-list UDFs evaluate after all
   filtering, i.e. only on surviving rows.
2. :func:`pushdown_predicates` — predicates that touch no function
   call and no generated column sink to a single Filter directly above
   the Scan, below every EvalUdf. A predicate referencing a UDF output
   is deliberately *not* pushed (it would read a column that does not
   exist yet) — that skip has a dedicated regression test.
3. :func:`prune_columns` — the Scan is annotated with exactly the base
   columns the rest of the plan reads, so row batches carry no dead
   values.

Passes never validate column existence: like the naive oracle, unknown
columns surface lazily at evaluation time, row by row. A plan depends
on the SQL text alone, and plans are frozen dataclasses, so
:func:`compile_plan` memoises the plan per text.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache
from typing import Any

from repro.sqlext.engine import ColumnRef, Comparison, FuncCall, _AGGREGATES, parse_select
from repro.sqlext.plan import (
    Aggregate,
    EvalUdf,
    Filter,
    Project,
    Scan,
    build_plan,
)

__all__ = [
    "compile_plan",
    "optimize_plan",
    "extract_udfs",
    "pushdown_predicates",
    "prune_columns",
    "GENERATED_PREFIX",
]

#: prefix for optimizer-generated UDF output columns.
GENERATED_PREFIX = "__udf"


def _chain(plan: Any) -> list[Any]:
    """The plan as a top-to-bottom list of operators (Scan last)."""
    nodes = []
    node = plan
    while node is not None:
        nodes.append(node)
        node = getattr(node, "child", None)
    return nodes


def _rebuild(nodes: list[Any]) -> Any:
    """Re-link a top-to-bottom operator list into a plan."""
    plan = nodes[-1]
    for node in reversed(nodes[:-1]):
        plan = replace(node, child=plan)
    return plan


def _walk_exprs(expr: Any):
    """Yield ``expr`` and every sub-expression."""
    yield expr
    if isinstance(expr, Comparison):
        yield from _walk_exprs(expr.left)
        yield from _walk_exprs(expr.right)
    elif isinstance(expr, FuncCall) and expr.arg != "*":
        yield from _walk_exprs(expr.arg)


def _column_names(plan: Any) -> set[str]:
    """Every column name referenced anywhere in the plan's expressions."""
    names: set[str] = set()
    for node in _chain(plan):
        for expr in _node_exprs(node):
            for sub in _walk_exprs(expr):
                if isinstance(sub, ColumnRef):
                    names.add(sub.name)
    return names


def _node_exprs(node: Any) -> list[Any]:
    if isinstance(node, Filter):
        return list(node.predicates)
    if isinstance(node, EvalUdf):
        return [call for _, call in node.calls]
    if isinstance(node, Project):
        return [expr for _, expr in node.outputs]
    if isinstance(node, Aggregate):
        return [expr for _, _, expr in node.outputs]
    return []


class _UdfExtractor:
    """Shared rewrite state: one generated column per distinct call."""

    def __init__(self, reserved: set[str]):
        self.reserved = reserved
        self.by_call: dict[FuncCall, str] = {}
        self.counter = 0

    def _new_name(self) -> str:
        while True:
            name = f"{GENERATED_PREFIX}{self.counter}"
            self.counter += 1
            if name not in self.reserved:
                return name

    def rewrite(self, expr: Any, new_calls: list[tuple[str, FuncCall]]) -> Any:
        """Rewrite ``expr``, appending newly-materialized calls in order."""
        if isinstance(expr, Comparison):
            left = self.rewrite(expr.left, new_calls)
            right = self.rewrite(expr.right, new_calls)
            return Comparison(left, expr.op, right)
        if isinstance(expr, FuncCall):
            if expr.arg == "*":
                return expr
            arg = self.rewrite(expr.arg, new_calls)
            if expr.name in _AGGREGATES:
                # Aggregates fold per group; only their argument's UDFs
                # are hoisted (computed per input row, batched).
                return FuncCall(expr.name, arg)
            call = FuncCall(expr.name, arg)
            if call not in self.by_call:
                name = self._new_name()
                self.by_call[call] = name
                new_calls.append((name, call))
            return ColumnRef(self.by_call[call])
        return expr


def extract_udfs(plan: Any) -> Any:
    """Hoist UDF calls into EvalUdf stages (with CSE); see module docs."""
    nodes = _chain(plan)
    scan = nodes[-1]
    head = nodes[:-1]

    where: Filter | None = None
    if head and isinstance(head[-1], Filter):
        where = head[-1]
        head = head[:-1]
    # ``head`` is now [Limit?, Sort?, Project|Aggregate].

    extractor = _UdfExtractor(_column_names(plan))
    middle: list[Any] = []  # bottom-to-top, starting just above the Scan

    if where is not None:
        plain: list[Comparison] = []

        def flush_plain() -> None:
            if plain:
                middle.append(Filter(None, tuple(plain)))
                plain.clear()

        for predicate in where.predicates:
            new_calls: list[tuple[str, FuncCall]] = []
            rewritten = extractor.rewrite(predicate, new_calls)
            if new_calls:
                flush_plain()
                middle.append(EvalUdf(None, tuple(new_calls)))
                middle.append(Filter(None, (rewritten,)))
            else:
                plain.append(rewritten)
        flush_plain()

    select_calls: list[tuple[str, FuncCall]] = []
    output_node = head[-1]
    if isinstance(output_node, Project):
        outputs = tuple(
            (name, extractor.rewrite(expr, select_calls))
            for name, expr in output_node.outputs
        )
        output_node = replace(output_node, outputs=outputs)
    elif isinstance(output_node, Aggregate):
        outputs = tuple(
            (name, kind, extractor.rewrite(expr, select_calls))
            for name, kind, expr in output_node.outputs
        )
        output_node = replace(output_node, outputs=outputs)
    if select_calls:
        middle.append(EvalUdf(None, tuple(select_calls)))

    top = list(head[:-1]) + [output_node] + list(reversed(middle)) + [scan]
    return _rebuild(top)


def _generated_columns(plan: Any) -> set[str]:
    return {
        name
        for node in _chain(plan)
        if isinstance(node, EvalUdf)
        for name, _ in node.calls
    }


def pushdown_predicates(plan: Any) -> Any:
    """Sink UDF-free predicates to one Filter directly above the Scan."""
    nodes = _chain(plan)
    generated = _generated_columns(plan)

    def pushable(predicate: Comparison) -> bool:
        for sub in _walk_exprs(predicate):
            if isinstance(sub, FuncCall):
                return False  # UDF (not yet extracted) or aggregate
            if isinstance(sub, ColumnRef) and sub.name in generated:
                return False  # reads a UDF output that doesn't exist yet
        return True

    # Split the chain at the first Project/Aggregate: only Filter and
    # EvalUdf operators live between it and the Scan.
    split = next(
        i for i, n in enumerate(nodes) if isinstance(n, (Project, Aggregate))
    )
    head, middle, scan = nodes[: split + 1], nodes[split + 1 : -1], nodes[-1]

    pushed: list[Comparison] = []
    kept: list[Any] = []
    for node in reversed(middle):  # bottom-up keeps WHERE order in ``pushed``
        if isinstance(node, Filter) and all(pushable(p) for p in node.predicates):
            pushed.extend(node.predicates)
        else:
            kept.append(node)
    kept.reverse()
    if pushed:
        kept.append(Filter(None, tuple(pushed)))
    return _rebuild(head + kept + [scan])


def prune_columns(plan: Any) -> Any:
    """Annotate the Scan with exactly the base columns the plan reads."""
    nodes = _chain(plan)
    generated = _generated_columns(plan)
    needed = sorted(
        name for name in _column_names(plan) if name not in generated
    )
    return _rebuild(nodes[:-1] + [replace(nodes[-1], columns=tuple(needed))])


def optimize_plan(plan: Any) -> Any:
    """Run every pass in order; safe on any canonical plan."""
    if not isinstance(_chain(plan)[-1], Scan):
        return plan
    plan = extract_udfs(plan)
    plan = pushdown_predicates(plan)
    plan = prune_columns(plan)
    return plan


@lru_cache(maxsize=256)
def compile_plan(sql: str, optimize: bool = True) -> Any:
    """The (optionally optimized) plan of one SELECT, built once per text."""
    plan = build_plan(parse_select(sql))
    return optimize_plan(plan) if optimize else plan
