"""A dropped system is freed by reference counting alone.

Reference cycles keep a dropped ``Rafiki``, and everything it holds,
alive until the cyclic collector happens to run, so the process's peak
memory depends on when that is. The quickstart flow (import, train,
deploy, query) plus one SQL query through the inference UDF runs here
with the collector off; once the gateway is dropped, the system must be
gone, and a collection must find nothing of ``repro``'s to free.
"""

from __future__ import annotations

import gc
import weakref

import repro as rafiki
from repro.api import sdk
from repro.data import make_image_classification
from repro.sqlext import Column, Database, make_inference_udf


def quickstart_and_sql() -> weakref.ref:
    gateway = sdk.connect()
    photos = make_image_classification(
        name="food", num_classes=3, image_shape=(3, 8, 8),
        train_per_class=12, val_per_class=4, test_per_class=4,
        difficulty=0.3, seed=7,
    )
    data = rafiki.import_images(photos)
    job_id = rafiki.Train(
        name="train", data=data, task="ImageClassification",
        hyper=rafiki.HyperConf(max_trials=3, max_epochs_per_trial=2),
    ).run()
    infer_id = rafiki.Inference(rafiki.get_models(job_id)).run()
    for image in photos.test_x[:8]:
        rafiki.query(job=infer_id, data={"img": image})

    db = Database()
    db.create_table("meals", [Column("id", "integer"), Column("photo", "text", not_null=True)])
    photo_store = {}
    for i, image in enumerate(photos.test_x[:6]):
        photo_store[f"meal/{i}"] = image
        db.insert("meals", id=i, photo=f"meal/{i}")
    db.udfs.register(
        "food_name", make_inference_udf(gateway, infer_id, photo_store, ("a", "b", "c"))
    )
    rows = db.execute("SELECT food_name(photo) AS name, count(*) FROM meals GROUP BY name").rows
    assert sum(count for _, count in rows) == 6
    return weakref.ref(gateway.system)


def test_the_system_is_freed_without_the_collector(monkeypatch):
    monkeypatch.setattr(sdk, "_gateway", None)
    monkeypatch.setattr(sdk, "_tenant", None)
    gc.collect()  # what earlier tests left is not this test's
    enabled = gc.isenabled()
    gc.disable()
    try:
        system = quickstart_and_sql()
        sdk._gateway = None  # the SDK's reference; monkeypatch restores the original
        assert system() is None, "the system outlived its last reference"
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        kept = sorted({
            f"{type(obj).__module__}.{type(obj).__qualname__}"
            for obj in gc.garbage
            if type(obj).__module__.startswith("repro")
        })
        assert kept == [], f"reference cycles of {kept}"
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()

