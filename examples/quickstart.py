"""Quickstart: the paper's Figure 2 user code, end to end.

Trains Rafiki's built-in image-classification models on an uploaded
dataset (4 lines, as in the paper), deploys them instantly, and sends a
prediction query — all through the Python SDK backed by the REST-style
gateway.

Run:  python examples/quickstart.py
"""

import os
import tempfile

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
# generate a synthetic "food photo" dataset and write its training
# images as a folder of <label>/<n>.npy files, which rafiki.import_images
# uploads through POST /datasets. The test images are held back for
# the queries below.
# ----------------------------------------------------------------------
food_photos = make_image_classification(
    name="food", num_classes=4, image_shape=(3, 8, 8),
    train_per_class=30, val_per_class=10, test_per_class=8,
    difficulty=0.3, seed=42,
)
with tempfile.TemporaryDirectory() as folder:
    images = np.concatenate([food_photos.train_x, food_photos.val_x])
    labels = np.concatenate([food_photos.train_y, food_photos.val_y])
    for n, (img, label) in enumerate(zip(images, labels)):
        os.makedirs(os.path.join(folder, str(label)), exist_ok=True)
        np.save(os.path.join(folder, str(label), f"{n}.npy"), img)
    data = rafiki.import_images(folder, name="food")
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
deployed = gateway.handle("GET", f"/inference/{infer_id}").body
print(f"deployed {deployed['models']} as {infer_id}: {deployed['status']}")

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

# ----------------------------------------------------------------------
# Undeploy: DELETE /inference/<id> stops serving and frees the replicas.
# ----------------------------------------------------------------------
gateway.handle("DELETE", f"/inference/{infer_id}")
stopped = gateway.handle("GET", f"/inference/{infer_id}").body
print(f"{infer_id}: {stopped['status']} after {stopped['queries_served']} queries")
assert stopped["status"] == "stopped", stopped
