"""SQL analytics: row-at-a-time vs batched vs cached UDFs.

The workload is the paper's case-study shape — a full-table scan whose
select list calls an ML UDF (here a small NumPy MLP forward pass) and
aggregates the predictions::

    SELECT classify(x) AS label, count(*) AS n FROM logs GROUP BY label

Three executions of the same query:

1. **naive** — the ``NaiveExecutor`` oracle: one scalar model call per
   row (the pre-plan engine's only mode);
2. **batched** — the planned executor with the cross-query cache off:
   the UDF call, evaluated where the query writes it, collects every
   argument and dispatches hardware batches, so the MLP runs a few
   vectorised forward passes instead of one per row;
3. **cached** — the planned executor with the prediction cache on,
   timing a *repeated* scan: the second run serves every argument from
   the cache.

``simulated`` holds what the seed fixes — planned ≡ naive bit-for-bit
on a fixed query corpus, model-call / dispatch / cache-hit counts per
mode — and ``wall`` the rows/s of each mode (informational), plus
``warm_foodlog_rows_per_s``: the three query shapes of the Section 8 case study
(group-by on the UDF, filtered group-by, UDF in WHERE) over a table
whose UDF argument repeats Zipf-fashion, timed warm, so every argument
is a cache hit and the SQL operators are the whole cost. Gates: no
corpus mismatch, batched dispatches < rows, a repeated scan all cache
hits and no model calls.

Run through the shared runner (see ``_perf.py``)::

    python benchmarks/bench_perf_sql.py [--smoke] [--seed N]
"""

import sys
import time

import _perf
import numpy as np

from repro.sqlext import Column, Database

QUERY = "SELECT classify(x) AS label, count(*) AS n FROM logs GROUP BY label"

#: fixed differential corpus for the planned ≡ naive gate.
CORPUS = (
    "SELECT x, y FROM logs WHERE x > 100 ORDER BY x LIMIT 20",
    "SELECT classify(x) AS label, count(*) AS n FROM logs GROUP BY label",
    "SELECT classify(x) AS label, y FROM logs WHERE classify(x) >= 2 "
    "AND y > 0 GROUP BY label, y ORDER BY y LIMIT 15",
    "SELECT count(*) AS n, sum(y) AS s, avg(x) AS m FROM logs WHERE x <= 500",
    "SELECT classify(y) AS a, classify(x) AS b FROM logs "
    "WHERE y != 13 GROUP BY a, b",
)


def make_model(seed: int, dim: int = 64, hidden: int = 256):
    """A fixed-weight MLP classifier over a deterministic featurizer."""
    rng = np.random.default_rng(seed)
    w1 = rng.standard_normal((dim, hidden)) / np.sqrt(dim)
    w2 = rng.standard_normal((hidden, 8)) / np.sqrt(hidden)
    scale = np.arange(1, dim + 1) * 0.01

    def features(values: np.ndarray) -> np.ndarray:
        return np.sin(np.outer(np.asarray(values, dtype=np.float64), scale))

    def classify_one(value) -> int:
        hidden_act = np.tanh(features([value]) @ w1)
        return int(np.argmax(hidden_act @ w2, axis=1)[0])

    def classify_batch(values: list) -> list[int]:
        hidden_act = np.tanh(features(values) @ w1)
        return [int(v) for v in np.argmax(hidden_act @ w2, axis=1)]

    return classify_one, classify_batch


#: the case study's query shapes over ``foodlog`` (``image`` is the UDF input).
FOODLOG = (
    "SELECT classify(image) AS food, count(*) AS n FROM foodlog GROUP BY food",
    "SELECT classify(image) AS food, count(*) AS n, avg(age) AS mean_age "
    "FROM foodlog WHERE age > 52 GROUP BY food",
    "SELECT user_id, age FROM foodlog WHERE classify(image) = 3 "
    "AND age < 40 ORDER BY user_id LIMIT 100",
)


def make_database(rows: int, seed: int, udf_cache: bool,
                  batched_udf: bool) -> Database:
    """The ``logs`` table plus the ``classify`` model UDF."""
    # Cache sized to the workload so the repeated scan is all hits.
    db = Database(udf_cache=udf_cache, cache_capacity=max(1024, rows))
    db.create_table("logs", [Column("id", "int"), Column("x", "int"),
                             Column("y", "int")])
    rng = np.random.default_rng(seed)
    # x values are distinct: the batched-vs-naive comparison measures
    # vectorisation, not dedup.
    xs = rng.permutation(rows * 3)[:rows]
    for i in range(rows):
        db.insert("logs", id=i, x=int(xs[i]), y=int(rng.integers(-20, 21)))
    classify_one, classify_batch = make_model(seed)
    db.udfs.register(
        "classify", classify_one,
        batch_fn=classify_batch if batched_udf else None,
    )
    return db


def warm_foodlog_rows_per_s(rows: int, seed: int) -> float:
    """Rows/s of the ``FOODLOG`` queries once every UDF argument is cached."""
    db = Database(cache_capacity=1024)
    db.create_table("foodlog", [Column("user_id", "int"), Column("age", "int"),
                                Column("image", "int")])
    rng = np.random.default_rng(seed)
    weights = 1.0 / np.arange(1, 513) ** 1.2
    images = rng.choice(512, size=rows, p=weights / weights.sum())
    for user in range(rows):
        db.insert("foodlog", user_id=user, age=int(rng.integers(18, 80)),
                  image=int(images[user]))
    classify_one, classify_batch = make_model(seed)
    db.udfs.register("classify", classify_one, batch_fn=classify_batch)
    seconds = sum(
        _perf.time_per_call(lambda: db.execute(sql), repeats=5) for sql in FOODLOG
    )
    return round(len(FOODLOG) * rows / seconds, 1)


def corpus_mismatches(rows: int, seed: int) -> list[str]:
    """Corpus queries whose planned result is not bit-identical to naive."""
    db = make_database(rows, seed, udf_cache=True, batched_udf=True)
    mismatches = []
    for sql in CORPUS:
        naive = db.execute(sql, executor="naive")
        planned = db.execute(sql, executor="planned")
        if (planned.columns, repr(planned.rows)) != (naive.columns, repr(naive.rows)):
            mismatches.append(sql)
    return mismatches


def timed_query(db: Database, executor: str):
    start = time.perf_counter()
    result = db.execute(QUERY, executor=executor)
    return result, time.perf_counter() - start


def run(smoke: bool, seed: int) -> dict:
    rows = 400 if smoke else 2000
    # First, so the timed scans below run on warm code paths.
    mismatches = corpus_mismatches(min(rows, 400), seed)
    naive, naive_s = timed_query(
        make_database(rows, seed, udf_cache=False, batched_udf=False), "naive"
    )
    batched, batched_s = timed_query(
        make_database(rows, seed, udf_cache=False, batched_udf=True), "planned"
    )
    db = make_database(rows, seed, udf_cache=True, batched_udf=True)
    db.execute(QUERY, executor="planned")  # cold scan warms the cache
    cached, cached_s = timed_query(db, "planned")
    rows_per_s = {
        "naive": round(rows / naive_s, 1),
        "batched": round(rows / batched_s, 1),
        "cached": round(rows / cached_s, 1),
    }
    return {
        "simulated": {
            "workload": {"rows": rows, "seed": seed, "query": QUERY},
            "differential_corpus_queries": len(CORPUS),
            "corpus_mismatches": mismatches,
            "modes": {
                "naive": {"udf_calls": naive.udf_calls, "dispatches": 0},
                "batched": {
                    "udf_calls": batched.udf_calls,
                    "dispatches": batched.udf_batches,
                    "equals_naive": repr(batched.rows) == repr(naive.rows),
                },
                "cached": {
                    "udf_calls": cached.udf_calls,
                    "dispatches": cached.udf_batches,
                    "cache_hits": cached.cache_hits,
                    "equals_naive": repr(cached.rows) == repr(naive.rows),
                },
            },
        },
        "wall": {
            "rows_per_s": rows_per_s,
            # 4 000 rows in a full run, the size of the e2e sql_foodlog table
            "warm_foodlog_rows_per_s": warm_foodlog_rows_per_s(2 * rows, seed),
            "speedup_vs_naive": {
                mode: round(rows_per_s[mode] / rows_per_s["naive"], 2)
                for mode in ("batched", "cached")
            },
        },
    }


def table(payload: dict) -> str:
    sim, wall = payload["simulated"], payload["wall"]
    modes, speedup = sim["modes"], wall["speedup_vs_naive"]
    lines = [
        f"differential corpus: {sim['differential_corpus_queries']} queries, "
        f"{len(sim['corpus_mismatches'])} planned != naive",
        f"{'mode':>10} {'rows/s (wall)':>14} {'udf calls':>10} {'dispatches':>11}",
    ]
    for mode in ("naive", "batched", "cached"):
        lines.append(
            f"{mode:>10} {wall['rows_per_s'][mode]:>14.1f} "
            f"{modes[mode]['udf_calls']:>10} "
            f"{modes[mode]['dispatches'] if mode != 'naive' else '-':>11}"
        )
    lines.append(
        f"speedup vs naive: batched {speedup['batched']}x, "
        f"cached {speedup['cached']}x "
        f"(cache hits: {modes['cached']['cache_hits']})"
    )
    lines.append(
        f"warm case-study queries (operator-bound): "
        f"{wall['warm_foodlog_rows_per_s']:.1f} rows/s"
    )
    return "\n".join(lines)


def check(payload: dict) -> list[str]:
    sim = payload["simulated"]
    rows, modes = sim["workload"]["rows"], sim["modes"]
    failures = [f"planned != naive for: {sql}" for sql in sim["corpus_mismatches"]]
    for mode in ("batched", "cached"):
        if not modes[mode]["equals_naive"]:
            failures.append(f"{mode} != naive on the benchmark query")
    if modes["batched"]["dispatches"] >= rows:
        failures.append(
            f"batched dispatch count {modes['batched']['dispatches']} "
            f"not < row count {rows}"
        )
    if modes["cached"]["cache_hits"] <= 0:
        failures.append("repeated scan produced no cache hits")
    if modes["cached"]["udf_calls"] != 0:
        failures.append(
            f"repeated scan still made {modes['cached']['udf_calls']} model calls"
        )
    return failures


if __name__ == "__main__":
    raise SystemExit(_perf.main(sys.modules[__name__]))
