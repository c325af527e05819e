"""Query executors: the naive oracle and the planned/batched pipeline.

Two executors share the AST and produce bit-identical results:

* :class:`NaiveExecutor` — the original row-at-a-time interpreter,
  preserved verbatim. It defines the engine's semantics (lazy column
  resolution, WHERE short-circuiting, group ordering, sort stability)
  and serves as the oracle for the differential test harness.
* :class:`PlannedExecutor` — runs optimized logical plans. Its
  :class:`~repro.sqlext.plan.EvalUdf` operator hands each UDF's
  arguments for *all* surviving rows to a
  :class:`UdfBatchDispatcher`, which dedupes them, serves repeats from
  a :class:`~repro.core.serve.pred_cache.PredictionCache`, and chunks
  the distinct misses into the serving layer's hardware batch sizes
  — so an analytical scan rides the same batched inference path as
  online serving. Each chunk dispatch passes the ``sql.udf.dispatch`` chaos
  point under a seeded :class:`~repro.utils.retry.RetryPolicy`;
  exhausted retries shed the query with
  :class:`~repro.exceptions.RequestShedError` (the gateway maps that
  to HTTP 429), mirroring the serving front end.
"""

from __future__ import annotations

from typing import Any, Callable

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
from repro.sqlext.plan import (
    Aggregate,
    EvalUdf,
    Filter,
    Limit,
    Project,
    Scan,
    Sort,
    build_plan,
)
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
    takes every argument an :class:`~repro.sqlext.plan.EvalUdf`
    operator collected and returns aligned results, having made as few
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

    def __init__(
        self,
        registry,
        cache_capacity: int = 1024,
        retry: RetryPolicy | None = None,
    ):
        self.registry = registry
        self.cache_capacity = int(cache_capacity)
        self.retry = retry or RetryPolicy(
            max_attempts=3, retry_on=(InjectedFault,), seed=0
        )
        self._caches: dict[str, PredictionCache] = {}
        self.batches_dispatched = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.retries = 0
        self.sheds = 0
        #: deterministic event log (dispatch/latency/retry/shed) — the
        #: chaos tests assert same-seed runs produce identical traces.
        self.trace: list[dict] = []

    def call_batch(self, name: str, args: list[Any]) -> list[Any]:
        """Evaluate ``name`` over ``args``; results align with ``args``."""
        if not args:
            return []
        key = name.lower()
        if self.cache_capacity > 0:
            cache = self._caches.get(key)
            if cache is None:
                cache = self._caches[key] = PredictionCache(self.cache_capacity)
        else:
            # Caching disabled: a throwaway cache still collapses
            # duplicates within this one batch, but remembers nothing.
            cache = PredictionCache(len(args))
        hits_before, misses_before = cache.hits, cache.misses
        values = cache.query_batch(
            args,
            predict_batch=lambda misses: (self._dispatch_all(name, misses), True),
            key=_scalar_key,
        )
        if self.cache_capacity > 0:
            delta_hits = cache.hits - hits_before
            delta_misses = cache.misses - misses_before
            self.cache_hits += delta_hits
            self.cache_misses += delta_misses
            registry = telemetry.get_registry()
            if delta_hits:
                registry.counter(
                    "repro_sql_cache_hits_total",
                    "SQL UDF arguments served from the prediction cache.",
                ).inc(delta_hits, udf=key)
            if delta_misses:
                registry.counter(
                    "repro_sql_cache_misses_total",
                    "SQL UDF arguments that missed the prediction cache.",
                ).inc(delta_misses, udf=key)
        return values

    def invalidate(self) -> None:
        """Drop every cached result (call after re-deploying models)."""
        for cache in self._caches.values():
            cache.invalidate_all()

    # ------------------------------------------------------------------

    def _dispatch_all(self, name: str, args: list[Any]) -> list[Any]:
        results: list[Any] = []
        for chunk in self._chunks(args):
            results.extend(self._dispatch_chunk(name, chunk))
        return results

    def _chunks(self, args: list[Any]) -> list[list[Any]]:
        """Carve ``args`` into hardware batches, largest size first."""
        chunks: list[list[Any]] = []
        start = 0
        while start < len(args):
            remaining = len(args) - start
            take = max(
                (size for size in self.BATCH_SIZES if size <= remaining),
                default=remaining,
            )
            chunks.append(args[start:start + take])
            start += take
        return chunks

    def _dispatch_chunk(self, name: str, chunk: list[Any]) -> list[Any]:
        udf = name.lower()

        def attempt() -> list[Any]:
            latency = chaos.fire(self.FAULT_POINT)
            if latency:
                self.trace.append(
                    {"event": "latency", "udf": udf, "seconds": round(latency, 9)}
                )
            return self.registry.call_batch(name, chunk)

        def on_retry(attempt_index: int, error: BaseException) -> None:
            self.retries += 1
            telemetry.get_registry().counter(
                "repro_sql_udf_retries_total",
                "SQL UDF batch dispatches retried after an injected fault.",
            ).inc(udf=udf)
            self.trace.append(
                {
                    "event": "retry",
                    "udf": udf,
                    "attempt": attempt_index,
                    "error": type(error).__name__,
                }
            )

        try:
            results = self.retry.call(
                attempt, name=self.FAULT_POINT, on_retry=on_retry
            )
        except RetryExhaustedError as exc:
            self.sheds += 1
            telemetry.get_registry().counter(
                "repro_sql_udf_sheds_total",
                "SQL queries shed after exhausting UDF dispatch retries.",
            ).inc(udf=udf)
            self.trace.append({"event": "shed", "udf": udf, "rows": len(chunk)})
            raise RequestShedError(
                reason="dispatch_failed",
                retry_after=self.RETRY_AFTER,
                detail=f"udf {udf!r} batch of {len(chunk)}: {exc.last_error}",
            ) from exc
        self.batches_dispatched += 1
        registry = telemetry.get_registry()
        registry.counter(
            "repro_sql_udf_batches_total",
            "Batched SQL UDF dispatches, by function.",
        ).inc(udf=udf)
        registry.counter(
            "repro_sql_udf_batch_rows_total",
            "Arguments carried by batched SQL UDF dispatches.",
        ).inc(len(chunk), udf=udf)
        self.trace.append({"event": "dispatch", "udf": udf, "rows": len(chunk)})
        return results


class PlannedExecutor:
    """Runs logical plans; UDFs dispatch in batches per EvalUdf stage."""

    def __init__(self, database, dispatcher: UdfBatchDispatcher):
        self.database = database
        self.dispatcher = dispatcher
        self.last_plan: Any = None

    def execute(self, statement: SelectStatement, table: Table,
                optimize: bool = True) -> ResultSet:
        """Plan, (optionally) optimize, and run one statement."""
        from repro.sqlext.optimizer import optimize_plan

        plan = build_plan(statement)
        if optimize:
            plan = optimize_plan(plan)
        self.last_plan = plan
        return self._run(plan, table)

    # ------------------------------------------------------------------

    def _run(self, node: Any, table: Table) -> ResultSet:
        if isinstance(node, Limit):
            result = self._run(node.child, table)
            del result.rows[node.count:]
            return result
        if isinstance(node, Sort):
            result = self._run(node.child, table)
            self._sort(result, node.keys)
            return result
        if isinstance(node, Project):
            rows = self._rows(node.child, table)
            columns = [name for name, _ in node.outputs]
            out = [
                tuple(self._evaluate(expr, row) for _, expr in node.outputs)
                for row in rows
            ]
            return ResultSet(columns, out)
        if isinstance(node, Aggregate):
            return self._aggregate_rows(node, self._rows(node.child, table))
        raise SQLExecutionError(f"cannot execute plan node {node!r}")

    def _rows(self, node: Any, table: Table) -> list[dict]:
        if isinstance(node, Scan):
            return self._scan(node, table)
        if isinstance(node, Filter):
            rows = self._rows(node.child, table)
            return [row for row in rows if self._passes(node.predicates, row)]
        if isinstance(node, EvalUdf):
            rows = self._rows(node.child, table)
            for output, call in node.calls:
                arguments = [self._evaluate(call.arg, row) for row in rows]
                results = self.dispatcher.call_batch(call.name, arguments)
                for row, value in zip(rows, results):
                    row[output] = value
            return rows
        raise SQLExecutionError(f"cannot execute plan node {node!r}")

    def _scan(self, node: Scan, table: Table) -> list[dict]:
        if node.columns is None:
            return [dict(row) for row in table]
        # Resolve requested names against the schema the way the
        # evaluator resolves row keys (exact, then lowercase); names
        # that resolve to nothing are simply absent from the emitted
        # rows, so unknown columns still error *lazily* downstream,
        # exactly like the naive oracle.
        declared = [column.name for column in table.columns]
        actuals: list[str] = []
        for name in node.columns:
            actual = None
            if name in declared:
                actual = name
            elif name.lower() in declared:
                actual = name.lower()
            if actual is not None and actual not in actuals:
                actuals.append(actual)
        return [
            {name: row[name] for name in actuals if name in row}
            for row in table
        ]

    def _sort(self, result: ResultSet, keys) -> None:
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

    def _aggregate_rows(self, node: Aggregate, rows: list[dict]) -> ResultSet:
        key_outputs = [
            (name, expr) for name, kind, expr in node.outputs if kind == "key"
        ]
        groups: dict[tuple, list[dict]] = {}
        for row in rows:
            key = tuple(self._evaluate(expr, row) for _, expr in key_outputs)
            groups.setdefault(key, []).append(row)
        columns = [name for name, _, _ in node.outputs]
        out_rows: list[tuple] = []
        for key, members in groups.items():
            values: list[Any] = []
            key_iter = iter(key)
            for name, kind, expr in node.outputs:
                if kind == "agg":
                    values.append(self._fold(expr, members))
                else:
                    values.append(next(key_iter))
            out_rows.append(tuple(values))
        out_rows.sort(key=lambda r: tuple((v is None, str(v)) for v in r))
        return ResultSet(columns, out_rows)

    def _fold(self, call: FuncCall, rows: list[dict]) -> Any:
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
            lowered = expr.name.lower()
            if lowered in row:
                return row[lowered]
            raise SQLExecutionError(f"unknown column {expr.name!r}")
        if isinstance(expr, FuncCall):
            if expr.name in _AGGREGATES:
                raise SQLExecutionError(
                    f"aggregate {expr.name!r} is not allowed here"
                )
            # Only reachable on unoptimized plans (extraction hoists
            # every UDF into EvalUdf): fall back to per-row dispatch.
            argument = self._evaluate(expr.arg, row)
            return self.database.udfs.call(expr.name, argument)
        raise SQLExecutionError(f"cannot evaluate {expr!r}")

    def _passes(self, conditions, row: dict) -> bool:
        for condition in conditions:
            left = self._evaluate(condition.left, row)
            right = self._evaluate(condition.right, row)
            if left is None or right is None:
                return False
            if not _OPS[condition.op](left, right):
                return False
        return True


class NaiveExecutor:
    """The original row-at-a-time interpreter — the differential oracle.

    The method bodies are the pre-refactor ``Database`` internals,
    preserved verbatim: this class *defines* the engine's semantics,
    and the differential harness asserts the planned executor matches
    it bit-for-bit.
    """

    def __init__(self, database):
        self.database = database

    @property
    def udfs(self):
        """The owning database's UDF registry."""
        return self.database.udfs

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
        return result

    def _apply_order_and_limit(self, statement: SelectStatement,
                               result: ResultSet) -> None:
        if statement.order_by:
            lowered = [c.lower() for c in result.columns]
            indices = []
            for name, descending in statement.order_by:
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
            return self.udfs.call(expr.name, argument)
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
