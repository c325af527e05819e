"""Quickstart: the paper's Figure 2 user code, end to end.

Trains Rafiki's built-in image-classification models on an uploaded
dataset (4 lines, as in the paper), deploys them instantly, and sends a
prediction query — all through the Python SDK backed by the REST-style
gateway.

Run:  python examples/quickstart.py
"""

import numpy as np

import repro as rafiki
from repro.api.sdk import connect
from repro.data import make_image_classification

# ----------------------------------------------------------------------
# Connect the SDK to a Rafiki deployment (here: an in-process cluster
# with 3 simulated nodes, as in the paper's testbed).
# ----------------------------------------------------------------------
gateway = connect()

# ----------------------------------------------------------------------
# train.py (Figure 2) - no real image folder ships offline, so we
# generate a synthetic "food photo" dataset; rafiki.import_images also
# accepts a directory of <label>/<image>.npy files.
# ----------------------------------------------------------------------
food_photos = make_image_classification(
    name="food", num_classes=4, image_shape=(3, 8, 8),
    train_per_class=30, val_per_class=10, test_per_class=8,
    difficulty=0.3, seed=42,
)
data = rafiki.import_images(food_photos)
hyper = rafiki.HyperConf(max_trials=5, max_epochs_per_trial=8)
job = rafiki.Train(
    name="train", data=data, task="ImageClassification",
    input_shape=(3, 8, 8), output_shape=(4,), hyper=hyper,
)
job_id = job.run()
status = gateway.handle("GET", f"/train/{job_id}").body
print(f"training job {job_id}: {status['status']}, "
      f"models={status['models']}, best={status['best_performance']:.3f}")

# ----------------------------------------------------------------------
# infer.py (Figure 2): instant deployment from the parameter server.
# ----------------------------------------------------------------------
models = rafiki.get_models(job_id)
infer_job = rafiki.Inference(models)
infer_id = infer_job.run()
print(f"deployed {[m['model_name'] for m in models]} as {infer_id}")

# ----------------------------------------------------------------------
# query.py (Figure 2): an application user sends an image.
# ----------------------------------------------------------------------
correct = 0
for i in range(len(food_photos.test_y)):
    img = food_photos.test_x[i]
    ret = rafiki.query(job=infer_id, data={"img": img})
    if i == 0:
        ret_first = ret
    correct += int(ret["label"] == food_photos.test_y[i])
    if i < 3:
        print(f"query {i}: predicted={ret['label']} "
              f"true={int(food_photos.test_y[i])} votes={ret['votes']}")
total = len(food_photos.test_y)
print(f"ensemble test accuracy: {correct}/{total} = {correct / total:.2f}")

# ----------------------------------------------------------------------
# Training that goes on after deployment leaves newer checkpoints under
# the same parameter-server keys; a redeploy reloads every replica in
# place and drops the prediction cache. Nothing trained since, so the
# reloaded ensemble answers as before.
# ----------------------------------------------------------------------
reloaded = gateway.handle("POST", f"/inference/{infer_id}/redeploy").body
print("redeployed " + ", ".join(f"{m['model_name']} v{m['version']}"
                                for m in reloaded["models"]))
again = rafiki.query(job=infer_id, data={"img": food_photos.test_x[0]})
assert again == ret_first, (again, ret_first)
