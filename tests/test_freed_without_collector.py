"""A dropped system is freed by reference counting alone, parts and all.

Reference cycles keep a dropped ``Rafiki``, and everything it holds,
alive until the cyclic collector happens to run, so the process's peak
memory depends on when that is; a registry that holds an owner keeps it
alive for good. The quickstart flow (import, train, deploy, query) plus
one SQL query through the inference UDF runs here with the collector
off; once the gateway is dropped, the system must be gone, a collection
must find nothing of ``repro``'s to free, and no ``repro`` object
outside :mod:`repro.telemetry` may be left that was not there before,
apart from what the process caches below keep on purpose.
"""

from __future__ import annotations

import collections
import gc
import weakref

import repro as rafiki
from repro import telemetry
from repro.api import sdk
from repro.data import make_image_classification
from repro.sqlext import Column, Database, make_inference_udf
from repro.sqlext.engine import parse_select
from repro.sqlext.plan import compile_plan
from repro.tensor import im2col

#: Process caches the flow may grow, each with why it keeps what it holds.
#: They are emptied before the count, so what they held does not count.
PROCESS_CACHES = {
    parse_select: "a frozen statement per SQL text, parsed once",
    compile_plan: "a plan per SQL text, built once",
    im2col._patch_indices: "gather indices per convolution geometry",
    im2col._scatter_indices: "scatter indices per convolution geometry",
}
#: Types the flow may add instances of: the thread's inference arena,
#: which lives as long as its thread.
KEPT_TYPES = {"repro.tensor.workspace._Arena"}


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


def _repro_objects() -> collections.Counter:
    """Live ``repro`` objects outside :mod:`repro.telemetry`, by type."""
    counts: collections.Counter = collections.Counter()
    for obj in gc.get_objects():
        module = type(obj).__module__
        if isinstance(module, str) and module.startswith("repro") and not module.startswith(
            "repro.telemetry"
        ):
            counts[f"{module}.{type(obj).__qualname__}"] += 1
    return counts


def test_the_system_is_freed_without_the_collector(monkeypatch):
    monkeypatch.setattr(sdk, "_gateway", None)
    monkeypatch.setattr(sdk, "_tenant", None)
    gc.collect()  # what earlier tests left is not this test's
    before = _repro_objects()
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
    # A look at the registry drops the readers of owners that are gone,
    # and those were all of them.
    registry = telemetry.get_registry()
    for render in (telemetry.to_json, telemetry.render_prometheus):
        render(registry)
    assert [
        metric.name for metric in registry.metrics()
        if metric.kind == "gauge" and metric._readers
    ] == []
    for cache in PROCESS_CACHES:
        cache.cache_clear()
    after = _repro_objects()
    grown = {
        name: after[name] - before[name] for name in after
        if after[name] > before[name] and name not in KEPT_TYPES
    }
    assert grown == {}, f"alive after the drop: {grown}"
