"""Section 8 case study: SQL + deep-learning UDF.

Measures the benefit the paper's usability study claims: the WHERE
predicate runs before the select-list UDF, so only the filtered rows
pay an inference call. Also benchmarks the end-to-end SQL query with a
live (deployed NumPy ensemble) UDF behind the gateway.
"""

import numpy as np
import pytest
from _harness import emit

import repro as rafiki
from repro.api.sdk import connect
from repro.data import make_image_classification
from repro.sqlext import Column, Database, make_inference_udf

LABELS = ("laksa", "chicken rice", "salad")
ROWS = 60


@pytest.fixture(scope="module")
def deployment():
    gateway = connect()
    photos = make_image_classification(
        name="food", num_classes=len(LABELS), image_shape=(3, 8, 8),
        train_per_class=16, val_per_class=6, test_per_class=20,
        difficulty=0.3, seed=7,
    )
    data = rafiki.import_images(photos)
    job_id = rafiki.Train(
        name="bench-train", data=data, task="ImageClassification",
        hyper=rafiki.HyperConf(max_trials=2, max_epochs_per_trial=4),
    ).run()
    infer_id = rafiki.Inference(rafiki.get_models(job_id)).run()

    # The cross-query prediction cache is off: this study measures the
    # pushdown saving in raw inference calls, so the second (unfiltered)
    # query must not be served from the first query's cache.
    db = Database(udf_cache=False)
    db.create_table(
        "foodlog",
        [Column("user_id", "integer"), Column("age", "integer", not_null=True),
         Column("image_path", "text", not_null=True)],
        primary_key=("user_id",),
    )
    images = {}
    rng = np.random.default_rng(0)
    for i in range(ROWS):
        path = f"m/{i}.npy"
        images[path] = photos.test_x[i % len(photos.test_x)]
        db.insert("foodlog", user_id=i, age=int(rng.integers(18, 80)),
                  image_path=path)
    db.udfs.register(
        "food_name",
        make_inference_udf(gateway, infer_id, images, LABELS),
    )
    return db


def test_case_study_predicate_pushdown_saving(benchmark, deployment):
    db = deployment
    filtered_sql = (
        "SELECT food_name(image_path) AS name, count(*) FROM foodlog "
        "WHERE age > 52 GROUP BY name"
    )
    result = benchmark.pedantic(db.execute, args=(filtered_sql,),
                                rounds=1, iterations=1)
    full = db.execute(
        "SELECT food_name(image_path) AS name, count(*) FROM foodlog GROUP BY name"
    )
    matching = sum(1 for row in db.tables["foodlog"].rows if row["age"] > 52)
    lines = [
        f"rows in foodlog:                 {ROWS}",
        f"rows matching age > 52:          {matching}",
        f"UDF calls (filtered query):      {result.udf_calls}",
        f"UDF calls (unfiltered query):    {full.udf_calls}",
        f"inference saved by pushdown:     {full.udf_calls - result.udf_calls} calls",
    ]
    emit("case_study_sql", "\n".join(lines))

    assert result.udf_calls == matching
    assert full.udf_calls == ROWS
    assert result.udf_calls < full.udf_calls


def test_case_study_query_latency(benchmark, deployment):
    """End-to-end SQL latency with live inference calls."""
    db = deployment
    sql = "SELECT food_name(image_path) AS name, count(*) FROM foodlog " \
          "WHERE age > 70 GROUP BY name"
    result = benchmark(db.execute, sql)
    assert len(result.rows) >= 1
