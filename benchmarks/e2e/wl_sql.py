"""``sql_foodlog``: the Section 8 case study, SQL over a deployed model.

A 4 000-row ``foodlog`` table whose ``image_path`` column points at 512
images, drawn Zipf so popular photos repeat; three queries (group-by,
filtered group-by, UDF-in-WHERE) call ``food_name()``, which posts
batches to the deployed inference job through the gateway
(``make_batched_inference_udf``). Primary phase: each round drops the
UDF cache first, so rows/s is bound by inference dispatch. Alt phase:
the same scans warm, so rows/s is bound by the SQL operators and the
cache lookup.
"""

from __future__ import annotations

import numpy as np

from repro.api.gateway import Gateway
from repro.sqlext import (
    Column,
    Database,
    make_batched_inference_udf,
    make_inference_udf,
)

import harness

ROWS = 4000
IMAGES = 512
QUERIES = (
    "SELECT food_name(image_path) AS food, count(*) AS n FROM foodlog GROUP BY food",
    "SELECT food_name(image_path) AS food, count(*) AS n, avg(age) AS mean_age "
    "FROM foodlog WHERE age > 52 GROUP BY food",
    "SELECT user_id, age FROM foodlog WHERE food_name(image_path) = 'laksa' "
    "AND age < 40 ORDER BY user_id LIMIT 100",
)


class SqlWorkload(harness.Workload):
    def __init__(self, name: str, seed: int, seconds: float):
        super().__init__(name, seed, seconds)
        self.rows = ROWS if seconds >= 1.0 else ROWS // 8  # a smoke run is lighter
        self.trials = 3 if seconds >= 1.0 else 1
        self.cold_rounds = max(2, round(1.2 * seconds))
        self.warm_rounds = max(4, round(12 * seconds))

    # -- set-up ---------------------------------------------------------

    def setup(self, clock, tracer) -> None:
        self.clock, self.tracer = clock, tracer
        self.deployed = deployed = harness.deploy_ensemble(
            self.seed, clock, tracer, trials=self.trials, epochs=self.trials + 1,
            test_per_class=IMAGES // len(harness.FOOD_NAMES),
        )
        clock.lap("table")
        system = deployed.system
        images = harness.query_images(deployed.dataset, IMAGES)
        store = {f"photos/{i}.npy": image for i, image in enumerate(images)}
        self.gateway = gateway = Gateway(system)
        self.db = db = Database(udf_cache=True, cache_capacity=1024)
        db.create_table(
            "foodlog",
            [Column("user_id", "integer"), Column("age", "integer", not_null=True),
             Column("image_path", "text", not_null=True)],
            primary_key=("user_id",),
        )
        rng = np.random.default_rng(self.seed)
        picks = harness.zipf_draws(rng, IMAGES, self.rows)
        ages = rng.permutation(np.arange(self.rows) % 62 + 18)  # every seed: same ages
        for user, (pick, age) in enumerate(zip(picks, ages)):
            db.insert("foodlog", user_id=user, age=int(age),
                      image_path=f"photos/{int(pick)}.npy")
        batch_udf = make_batched_inference_udf(
            gateway, deployed.infer_job, store, harness.FOOD_NAMES)
        if tracer is not None:
            batch_udf = tracer.wrap_function(batch_udf, "sql.udf.dispatch")
            tracer.wrap(gateway, "handle", "api.gateway")
            tracer.wrap(db, "execute", "sql.execute")
            tracer.wrap(db, "explain", "sql.plan")
            harness.trace_tenants(tracer, system.tenants)
        db.udfs.register(
            "food_name",
            make_inference_udf(gateway, deployed.infer_job, store, harness.FOOD_NAMES),
            batch_fn=batch_udf,
        )
        clock.lap("warm")
        for sql in QUERIES:
            db.execute(sql)

    def prepare_oracle(self) -> None:
        """Reference rows from the row-at-a-time ``NaiveExecutor``."""
        self.reference = [repr(self.db.execute(sql, executor="naive").rows)
                          for sql in QUERIES]

    # -- load -----------------------------------------------------------

    def _round(self, outcome, phase: str, cold: bool) -> None:
        """The three queries, each its own timed segment (kind = the query)."""
        clock, db = self.clock, self.db
        if cold:
            db.invalidate_udf_cache()
        for index, (sql, want) in enumerate(zip(QUERIES, self.reference)):
            segment = clock.begin(phase, f"q{index}")
            result = db.execute(sql)
            clock.end()
            segment.ops = self.rows
            segment.latencies.append(segment.raw_s)
            outcome.attempt(phase, self.rows)
            outcome.oracle("planned_equals_naive", repr(result.rows) != want)
            outcome.record(result.rows)
            self.udf_calls += result.udf_calls
            self.udf_batches += result.udf_batches

    def run(self, outcome, primary: str, alt: str) -> None:
        tracer, dispatcher = self.tracer, self.db.dispatcher
        self.udf_calls = self.udf_batches = 0
        self._cache_mark = (dispatcher.cache_hits, dispatcher.cache_misses)
        # A cold round leaves the cache warm, so the warm rounds go between
        # the cold ones: both phases then sample the whole timed window.
        for is_primary in harness.interleave(self.cold_rounds, self.warm_rounds):
            if tracer is not None:
                tracer.enter("primary" if is_primary else "alt", timed=True)
            self._round(outcome, primary if is_primary else alt, cold=is_primary)

    def verify(self, outcome) -> None:
        if self.tracer is not None:  # the planner's cost, for ``sql.plan.ms``
            for sql in QUERIES:
                self.db.explain(sql)
        harness.checkpoint_oracle(self.deployed, outcome)

    # -- per-layer numbers ------------------------------------------------

    def layers(self, tracer) -> dict[str, float]:
        timed = harness.TIMED
        dispatcher = self.db.dispatcher
        hits = dispatcher.cache_hits - self._cache_mark[0]
        misses = dispatcher.cache_misses - self._cache_mark[1]
        queries = tracer.count("sql.execute", timed)
        system = self.deployed.system
        return {
            "sql.queries": queries,
            "sql.rows_scanned": queries * self.rows,
            "sql.plan.ms": tracer.total_ms("sql.plan"),
            "sql.exec.self_ms": tracer.self_ms("sql.execute", timed),
            "sql.udf.calls": self.udf_calls,
            "sql.udf.dispatches": self.udf_batches,
            "sql.udf.dispatch.ms": tracer.total_ms("sql.udf.dispatch", timed),
            "sql.udf.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "api.gateway.requests": tracer.count("api.gateway", timed),
            "api.gateway.self_ms": tracer.self_ms("api.gateway", timed),
            **harness.tenancy_layers(tracer),
            **harness.inference_layers(tracer),
            **harness.training_layers(tracer),
            **harness.storage_layers(tracer, system.param_server, system.store.blocks),
        }
