"""Query executors: the naive oracle and the planned column executor.

Two executors share the AST and produce bit-identical results:

* :class:`NaiveExecutor` — the original row-at-a-time interpreter,
  preserved verbatim. It defines the engine's semantics (lazy column
  resolution, WHERE short-circuiting, group ordering, sort stability)
  and serves as the oracle for the differential test harness.
* :class:`PlannedExecutor` — runs one logical plan column-at-a-time
  over the table's dictionary encoding (distinct values plus an int32
  code per row, :mod:`repro.sqlext.table`). Each plan node is one call
  over a selection vector of row indices: a Filter conjunct runs once
  per distinct value in the selection, is gathered back as a mask by
  code and narrows the selection before the next conjunct; a UDF call,
  wherever the query wrote it, hands the UDF each distinct argument
  over the current selection once, in first-seen order, and scatters
  the results back by code; an Aggregate groups by code tuple, merges
  the tuples whose values are equal (as the oracle's dict does) and
  folds each group left to right. Sort and Limit work on the result
  rows. Plans are built once per SQL text
  (:func:`~repro.sqlext.plan.compile_plan`). Each node runs in a span
  (``sql.scan``, ``sql.filter``, ...) nested as the plan is and tagged
  with its rows out and its own expressions' UDF work: the query's
  counts are their sums, so they describe that query alone.

UDF arguments go to a :class:`UdfBatchDispatcher`, which serves repeats
from a :class:`~repro.core.serve.pred_cache.PredictionCache` and chunks
the distinct misses into the serving layer's hardware batch sizes — so
an analytical scan rides the same batched inference path as online
serving. Each chunk dispatch is a ``sql.udf.dispatch`` span and chaos
point under a seeded :class:`~repro.utils.retry.RetryPolicy`; exhausted
retries shed the query with :class:`~repro.exceptions.RequestShedError`
(the gateway maps that to HTTP 429), mirroring the serving front end.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro import chaos, telemetry
from repro.core.serve.batching import DEFAULT_BATCH_SIZES
from repro.core.serve.pred_cache import PredictionCache
from repro.exceptions import (
    InjectedFault,
    RequestShedError,
    RetryExhaustedError,
    SQLExecutionError,
)
from repro.sqlext.engine import (
    _AGGREGATES,
    _OPS,
    ColumnRef,
    Comparison,
    FuncCall,
    Literal,
    ResultSet,
    SelectStatement,
)
from repro.sqlext.plan import Aggregate, Filter, Limit, Project, Scan, Sort
from repro.sqlext.table import Table
from repro.utils.retry import RetryPolicy

__all__ = ["NaiveExecutor", "PlannedExecutor", "UdfBatchDispatcher"]


def _scalar_key(value: Any) -> tuple[str, str]:
    """A deterministic cache key for a scalar UDF argument.

    ``repr`` round-trips ints, floats, strings, bools and None exactly;
    pairing it with the type name keeps ``1`` / ``1.0`` / ``True`` and
    ``'1'`` distinct.
    """
    return (type(value).__name__, repr(value))


class UdfBatchDispatcher:
    """Batched, cached, fault-tolerant UDF dispatch for the executor.

    One per :class:`~repro.sqlext.engine.Database`. ``call_batch``
    takes the distinct arguments of one UDF call over the selected rows
    and returns aligned results, and what that call cost (the dispatcher
    keeps no per-query count), having made as few
    underlying model calls as possible: duplicate arguments collapse,
    cached results are reused across queries, and the distinct misses
    are carved into the serving layer's hardware batch sizes, largest
    first (everything is available at once, so that is what Algorithm 3
    picks; a leftover below ``min(B)`` goes out as one padded batch).
    """

    FAULT_POINT = "sql.udf.dispatch"
    #: candidate hardware batch sizes.
    BATCH_SIZES = DEFAULT_BATCH_SIZES
    #: back-off hint on a shed query: the serving SLO (paper §7.2).
    RETRY_AFTER = 0.56
    #: the counters each UDF binds at its first call: event -> (family, help)
    COUNTERS = {
        "hits": ("repro_sql_cache_hits_total",
                 "SQL UDF arguments served from the prediction cache."),
        "misses": ("repro_sql_cache_misses_total",
                   "SQL UDF arguments that missed the prediction cache."),
        "batches": ("repro_sql_udf_batches_total", "Batched SQL UDF dispatches, by function."),
        "batch_rows": ("repro_sql_udf_batch_rows_total",
                       "Arguments carried by batched SQL UDF dispatches."),
        "retries": ("repro_sql_udf_retries_total",
                    "SQL UDF batch dispatches retried after an injected fault."),
        "sheds": ("repro_sql_udf_sheds_total",
                  "SQL queries shed after exhausting UDF dispatch retries."),
    }

    def __init__(self, registry, cache_capacity: int = 1024):
        self.registry = registry
        self.cache_capacity = int(cache_capacity)
        self.retry = RetryPolicy(max_attempts=3, retry_on=(InjectedFault,), seed=0)
        self._caches: dict[str, PredictionCache] = {}
        metrics = telemetry.get_registry()
        self._families = {e: telemetry.Counter(*f, metrics) for e, f in self.COUNTERS.items()}
        self._counters: dict[str, dict] = {}  # per UDF, bound at its first call

    def call_batch(self, name: str, args: list[Any], rows: int) -> tuple[list, int, int, int]:
        """Evaluate ``name`` over ``args``: the results (aligned with
        ``args``), then the arguments evaluated, batches and cache hits.

        ``args`` are the distinct arguments of ``rows`` table rows, each
        once: the hit count still counts every row not sent to the model.
        """
        if not args:
            return [], 0, 0, 0
        key = name.lower()
        counters = self._counters.get(key)
        if counters is None:
            counters = self._counters[key] = {
                event: family.labels(udf=key) for event, family in self._families.items()
            }
        if self.cache_capacity > 0:
            cache = self._caches.get(key)
            if cache is None:
                cache = self._caches[key] = PredictionCache(self.cache_capacity)
        else:
            # Caching disabled: a throwaway cache still collapses
            # duplicates within this one batch, but remembers nothing.
            cache = PredictionCache(len(args))
        sizes: list[int] = []  # of the batches dispatched

        def dispatch(misses: list[Any]) -> tuple[list[Any], bool]:
            results: list[Any] = []
            for chunk in self._chunks(misses):
                results += self._dispatch_chunk(name, chunk)
                sizes.append(len(chunk))
            return results, True

        values = cache.query_batch(args, predict_batch=dispatch, key=_scalar_key)
        calls, hits = sum(sizes), 0
        if self.cache_capacity > 0:
            hits = rows - calls
            if hits:
                counters["hits"].inc(hits)
            if calls:
                counters["misses"].inc(calls)
        return values, calls, len(sizes), hits

    @property
    def cache_hits(self) -> int:
        return sum(counters["hits"].count for counters in self._counters.values())

    @property
    def cache_misses(self) -> int:
        return sum(counters["misses"].count for counters in self._counters.values())

    def invalidate(self) -> None:
        """Drop every cached result (call after re-deploying models)."""
        for cache in self._caches.values():
            cache.invalidate_all()

    # ------------------------------------------------------------------

    def _chunks(self, args: list[Any]):
        """Carve ``args`` into hardware batches, largest size first."""
        start = 0
        while start < len(args):
            remaining = len(args) - start
            take = max(
                (size for size in self.BATCH_SIZES if size <= remaining),
                default=remaining,
            )
            yield args[start:start + take]
            start += take

    def _dispatch_chunk(self, name: str, chunk: list[Any]) -> list[Any]:
        """One chunk in a span tagged with the UDF, rows, injected latency,
        retries, each failed attempt's error type and outcome."""
        udf = name.lower()
        counters = self._counters[udf]
        latency, errors = 0.0, []

        def attempt() -> list[Any]:
            nonlocal latency
            latency += chaos.fire(self.FAULT_POINT)
            return self.registry.call_batch(name, chunk)

        def on_retry(attempt_index: int, error: BaseException) -> None:
            counters["retries"].inc()
            errors.append(type(error).__name__)

        with telemetry.get_tracer().span("sql.udf.dispatch", udf=udf, rows=len(chunk)) as span:
            try:
                results = self.retry.call(attempt, name=self.FAULT_POINT, on_retry=on_retry)
            except RetryExhaustedError as exc:
                counters["sheds"].inc()
                span.tag(latency=latency, retries=len(errors), outcome="shed",
                         errors=(*errors, type(exc.last_error).__name__))
                raise RequestShedError(
                    reason="dispatch_failed",
                    retry_after=self.RETRY_AFTER,
                    detail=f"udf {udf!r} batch of {len(chunk)}: {exc.last_error}",
                ) from exc
            span.tag(latency=latency, retries=len(errors), outcome="dispatched",
                     errors=tuple(errors))
        counters["batches"].inc()
        counters["batch_rows"].inc(len(chunk))
        return results


def _first_seen(vectors: list[tuple[np.ndarray, int]], n: int):
    """Number the distinct code tuples of ``n`` rows in order of first sight.

    ``vectors`` holds a ``(codes, dictionary size)`` pair per column.
    Returns each tuple's first row and each row's tuple number, found
    with a table indexed by code (a sort only for a sparse code space).
    """
    first, number, count = np.zeros(min(n, 1), np.intp), np.zeros(n, np.intp), min(n, 1)
    for codes, size in vectors:
        if size < 2:
            continue
        combined, bound = number * size + codes, count * size
        if bound > 4 * n + 1024:
            distinct, combined = np.unique(combined, return_inverse=True)
            bound = len(distinct)
        first = np.full(bound, n, np.intp)
        np.minimum.at(first, combined, np.arange(n))
        present = np.flatnonzero(first < n)
        present = present[np.argsort(first[present])]
        first, count = first[present], len(present)
        renumber = np.empty(bound, np.intp)
        renumber[present] = np.arange(count)
        number = renumber[combined]
    return first, number


def _gather(codes: np.ndarray, values: list) -> list:
    """One value per code."""
    return list(map(values.__getitem__, codes.tolist()))


_FOLDS: dict[str, Callable[[list], Any]] = {
    "sum": sum, "avg": lambda values: sum(values) / len(values), "min": min, "max": max,
}


def _order_rows(result: ResultSet, keys) -> None:
    """ORDER BY over result rows; both executors sort with this."""
    lowered = [c.lower() for c in result.columns]
    indices = []
    for name, descending in keys:
        if name in result.columns:
            indices.append((result.columns.index(name), descending))
        elif name.lower() in lowered:
            indices.append((lowered.index(name.lower()), descending))
        else:
            raise SQLExecutionError(
                f"ORDER BY column {name!r} is not in the select list"
            )
    # Stable sorts applied right-to-left give lexicographic order.
    for index, descending in reversed(indices):
        result.rows.sort(
            key=lambda row: (
                row[index] is None,
                0 if row[index] is None else row[index],
            ),
            reverse=descending,
        )


#: the span each plan node runs in
_NODE_SPANS = {Scan: "sql.scan", Filter: "sql.filter", Project: "sql.project",
              Aggregate: "sql.aggregate", Sort: "sql.sort", Limit: "sql.limit"}
#: what a node span counts of its own expressions' UDF calls (``ResultSet`` fields)
_UDF_COUNTS = ("udf_calls", "udf_batches", "cache_hits")


class PlannedExecutor:
    """Runs one logical plan column-at-a-time over a table's encoding.

    A node takes the selection (the rows still alive, as an index
    vector) and returns the next. An expression evaluates to a
    ``(codes, dictionary)`` vector over the selection, and over an empty
    one to nothing, so no error fires that the oracle would not raise.
    A UDF call dispatches inside the Filter, Project or Aggregate that
    evaluates it, over that node's selection. ``spans`` holds the node
    spans, top node first, tagged with their rows out and UDF work even
    when the tracer keeps no span.
    """

    def __init__(self, table: Table, dispatcher: UdfBatchDispatcher):
        self.table, self.dispatcher = table, dispatcher
        self.tracer = telemetry.get_tracer()
        self.spans: list = []
        self._counts: dict = {}  # the tags of the node evaluating expressions

    def execute(self, plan: Any) -> ResultSet:
        """Run ``plan`` over the table; the result counts every node's UDF work."""
        result = self._run(plan)
        result.spans = self.spans
        result.udf_calls, result.udf_batches, result.cache_hits = (
            sum(span.tags[count] for span in self.spans) for count in _UDF_COUNTS)
        return result

    def _span(self, node: Any):
        span = self.tracer.span(_NODE_SPANS[type(node)], rows=0, **dict.fromkeys(_UDF_COUNTS, 0))
        self.spans.append(span)
        return span

    def _run(self, node: Any) -> ResultSet:
        with self._span(node) as span:
            if isinstance(node, (Limit, Sort)):
                result = self._run(node.child)
                if isinstance(node, Limit):
                    del result.rows[node.count:]
                else:
                    _order_rows(result, node.keys)
            else:
                sel = self.select(node.child)
                self._counts = span.tags
                if isinstance(node, Project):
                    columns = [_gather(*self.vector(expr, sel)) for _, expr in node.outputs]
                    result = ResultSet([name for name, _ in node.outputs], list(zip(*columns)))
                else:
                    result = self.aggregate(node, sel)
            span.tags["rows"] = len(result.rows)
        return result

    def select(self, node: Any) -> np.ndarray:
        """Run a Filter/Scan chain; returns the surviving rows."""
        with self._span(node) as span:
            if isinstance(node, Scan):
                sel = np.arange(len(self.table))
            else:
                sel = self.select(node.child)
                self._counts = span.tags
                for condition in node.predicates:
                    (lc, lv), (rc, rv) = (self.vector(side, sel)
                                          for side in (condition.left, condition.right))
                    first, pair = _first_seen([(lc, len(lv)), (rc, len(rv))], len(sel))
                    op = _OPS[condition.op]
                    keep = [a is not None and b is not None and bool(op(a, b))
                            for a, b in zip(_gather(lc[first], lv), _gather(rc[first], rv))]
                    sel = sel[np.array(keep, dtype=bool)[pair]]
            span.tags["rows"] = len(sel)
        return sel

    def vector(self, expr: Any, sel: np.ndarray) -> tuple[np.ndarray, list]:
        """``expr`` over the selected rows, as ``(codes, dictionary)``."""
        if not len(sel):
            return sel, []
        if isinstance(expr, Literal):
            return np.zeros(len(sel), np.intp), [expr.value]
        if isinstance(expr, ColumnRef):
            column = self.table.encoded(expr.name)
            if column is None:
                raise SQLExecutionError(f"unknown column {expr.name!r}")
            return column[0][sel], column[1]
        if isinstance(expr, FuncCall):
            if expr.name in _AGGREGATES:
                raise SQLExecutionError(f"aggregate {expr.name!r} is not allowed here")
            # Each distinct argument once, in first-seen order; the row
            # count keeps the cache's hit count per row.
            codes, values = self.vector(expr.arg, sel)
            first, group = _first_seen([(codes, len(values))], len(sel))
            results, *counts = self.dispatcher.call_batch(
                expr.name, _gather(codes[first], values), len(sel))
            for name, count in zip(_UDF_COUNTS, counts):
                self._counts[name] += count
            return group, results
        raise SQLExecutionError(f"cannot evaluate {expr!r}")

    def aggregate(self, node: Aggregate, sel: np.ndarray) -> ResultSet:
        keys = [self.vector(expr, sel) for _, kind, expr in node.outputs if kind == "key"]
        first, group = _first_seen([(codes, len(values)) for codes, values in keys],
                                   len(sel))
        # Code tuples whose values are equal (1, 1.0 and True; 0.0 and
        # -0.0) are one group, keyed by the first, as in the oracle's dict.
        heads = [_gather(codes[first], values) for codes, values in keys]
        groups: dict[tuple, int] = {}
        merged = [groups.setdefault(key, len(groups))
                  for key in (zip(*heads) if keys else [()] * len(first))]
        group = np.asarray(merged, np.intp)[group] if merged else group
        order = np.argsort(group, kind="stable")  # by group, then row
        bounds = np.concatenate(([0], np.cumsum(np.bincount(group)))).tolist()
        folded: dict[int, list] = {}  # output -> its argument's values in ``order``
        rows: list[tuple] = []
        for index, key in enumerate(groups):
            start, stop = bounds[index], bounds[index + 1]
            key_values, row = iter(key), []
            for position, (_, kind, expr) in enumerate(node.outputs):
                if kind == "key":
                    row.append(next(key_values))
                elif expr.name == "count" and expr.arg == "*":
                    row.append(stop - start)
                else:
                    if position not in folded:  # at its first group, as in the oracle
                        codes, values = self.vector(expr.arg, sel)
                        folded[position] = _gather(codes[order], values)
                    present = [v for v in folded[position][start:stop] if v is not None]
                    if expr.name == "count":
                        row.append(len(present))
                    else:
                        row.append(_FOLDS[expr.name](present) if present else None)
            rows.append(tuple(row))
        rows.sort(key=lambda r: tuple((v is None, str(v)) for v in r))
        return ResultSet([name for name, _, _ in node.outputs], rows)


class NaiveExecutor:
    """The original row-at-a-time interpreter — the differential oracle.

    The method bodies are the pre-refactor ``Database`` internals (the
    ORDER BY sort is shared with the planned executor): this class
    *defines* the engine's semantics, and the differential harness
    asserts the planned executor matches it bit-for-bit.
    """

    def __init__(self, udfs):
        self.udfs = udfs
        self.udf_calls = 0  # the UDF arguments this query had evaluated

    def execute(self, statement: SelectStatement, table: Table) -> ResultSet:
        """Run one parsed statement over ``table``, row at a time."""
        # 1. WHERE first — no select-list UDF has run yet.
        survivors = [row for row in table if self._passes(statement.where, row)]

        # 2. Evaluate select expressions (UDFs fire here, per survivor).
        has_aggregate = any(
            isinstance(item.expr, FuncCall) and item.expr.name in _AGGREGATES
            for item in statement.items
        )
        if has_aggregate or statement.group_by:
            result = self._execute_grouped(statement, survivors)
        else:
            columns = [item.output_name() for item in statement.items]
            rows = [
                tuple(self._evaluate(item.expr, row) for item in statement.items)
                for row in survivors
            ]
            result = ResultSet(columns, rows)
        self._apply_order_and_limit(statement, result)
        result.udf_calls = self.udf_calls
        return result

    def _apply_order_and_limit(self, statement: SelectStatement,
                               result: ResultSet) -> None:
        if statement.order_by:
            _order_rows(result, statement.order_by)
        if statement.limit is not None:
            del result.rows[statement.limit:]

    def _execute_grouped(self, statement: SelectStatement,
                         rows: list[dict]) -> ResultSet:
        key_items = [
            item for item in statement.items
            if not (isinstance(item.expr, FuncCall) and item.expr.name in _AGGREGATES)
        ]
        agg_items = [
            item for item in statement.items
            if isinstance(item.expr, FuncCall) and item.expr.name in _AGGREGATES
        ]
        # GROUP BY columns must cover every non-aggregate select item
        # (by alias or by expression name).
        group_names = set(statement.group_by)
        if statement.group_by:
            for item in key_items:
                if item.output_name() not in group_names and not (
                    isinstance(item.expr, ColumnRef) and item.expr.name in group_names
                ):
                    raise SQLExecutionError(
                        f"{item.output_name()!r} must appear in GROUP BY"
                    )
        elif key_items:
            raise SQLExecutionError(
                "non-aggregate select items require GROUP BY"
            )

        groups: dict[tuple, list[dict]] = {}
        key_cache: dict[int, tuple] = {}
        for index, row in enumerate(rows):
            key = tuple(self._evaluate(item.expr, row) for item in key_items)
            key_cache[index] = key
            groups.setdefault(key, []).append(row)

        columns = [item.output_name() for item in statement.items]
        out_rows: list[tuple] = []
        for key, members in groups.items():
            values: list[Any] = []
            key_iter = iter(key)
            for item in statement.items:
                if item in agg_items:
                    values.append(self._aggregate(item.expr, members))
                else:
                    values.append(next(key_iter))
            out_rows.append(tuple(values))
        out_rows.sort(key=lambda r: tuple((v is None, str(v)) for v in r))
        return ResultSet(columns, out_rows)

    def _aggregate(self, call: FuncCall, rows: list[dict]) -> Any:
        if call.name == "count" and call.arg == "*":
            return len(rows)
        values = [self._evaluate(call.arg, row) for row in rows]
        values = [v for v in values if v is not None]
        if call.name == "count":
            return len(values)
        if not values:
            return None
        if call.name == "sum":
            return sum(values)
        if call.name == "avg":
            return sum(values) / len(values)
        if call.name == "min":
            return min(values)
        if call.name == "max":
            return max(values)
        raise SQLExecutionError(f"unknown aggregate {call.name!r}")

    def _evaluate(self, expr: Any, row: dict) -> Any:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            if expr.name in row:
                return row[expr.name]
            # SQL identifiers are case-insensitive.
            lowered = expr.name.lower()
            if lowered in row:
                return row[lowered]
            raise SQLExecutionError(f"unknown column {expr.name!r}")
        if isinstance(expr, FuncCall):
            if expr.name in _AGGREGATES:
                raise SQLExecutionError(
                    f"aggregate {expr.name!r} is not allowed here"
                )
            argument = self._evaluate(expr.arg, row)
            value = self.udfs.call(expr.name, argument)
            self.udf_calls += 1
            return value
        raise SQLExecutionError(f"cannot evaluate {expr!r}")

    def _passes(self, conditions: tuple[Comparison, ...], row: dict) -> bool:
        for condition in conditions:
            left = self._evaluate(condition.left, row)
            right = self._evaluate(condition.right, row)
            if left is None or right is None:
                return False
            if not _OPS[condition.op](left, right):
                return False
        return True
