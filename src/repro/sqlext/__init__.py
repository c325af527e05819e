"""Mini SQL engine with UDFs calling the inference service (Section 8).

Supports the case-study workload: ``CREATE TABLE``-style table
definitions, ``INSERT``, and ``SELECT`` with ``WHERE``, ``GROUP BY``
and aggregates, where select expressions may invoke registered
user-defined functions. Queries compile to a logical plan
(:mod:`repro.sqlext.plan`, which runs a WHERE clause's UDF-free
conjuncts before the ones calling a UDF) and execute on a
column-at-a-time executor (:mod:`repro.sqlext.exec`) where each UDF
call dispatches the distinct arguments of the rows it sees as one call
through the serving batcher and prediction cache. A query like

    SELECT food_name(image_path) AS name, count(*)
    FROM foodlog WHERE age > 52 GROUP BY name

therefore pays one *batched*, cached inference dispatch over the
filtered rows — the cost saving the paper's case study demonstrates.
The pre-plan row-at-a-time interpreter survives as
:class:`~repro.sqlext.exec.NaiveExecutor`, the oracle the differential
test harness checks the planner against bit-for-bit.
"""

from repro.sqlext.engine import Database, ResultSet
from repro.sqlext.exec import NaiveExecutor, PlannedExecutor, UdfBatchDispatcher
from repro.sqlext.table import Column, Table
from repro.sqlext.udf import UdfRegistry, make_batched_inference_udf, make_inference_udf

__all__ = [
    "Database",
    "ResultSet",
    "Table",
    "Column",
    "UdfRegistry",
    "NaiveExecutor",
    "PlannedExecutor",
    "UdfBatchDispatcher",
    "make_inference_udf",
    "make_batched_inference_udf",
]
