"""Data substrate: storage namespace, synthetic datasets, preprocessing.

Stands in for the paper's HDFS data layer and for CIFAR-10/ImageNet.
Datasets are procedurally generated (class-conditional structured
textures) so that ConvNets built on :mod:`repro.tensor` have a real
signal to learn, and the preprocessing module implements the exact
pipeline Section 7.1 describes (per-channel standardisation, 4-pixel
padding, random 32x32 crop, random horizontal flip).
"""

from repro.data.blockstore import BlockStore, DataNode, chunk_digest
from repro.data.datasets import ImageDataset, make_image_classification, make_sentiment_dataset
from repro.data.fs import FileNamespace, Manifest, PendingWrite
from repro.data.preprocess import (
    Compose,
    PadCrop,
    RandomFlip,
    Standardize,
    standard_cifar_pipeline,
)
from repro.data.store import DataStore, DatasetHandle

__all__ = [
    "BlockStore",
    "DataNode",
    "FileNamespace",
    "Manifest",
    "PendingWrite",
    "chunk_digest",
    "DataStore",
    "DatasetHandle",
    "ImageDataset",
    "make_image_classification",
    "make_sentiment_dataset",
    "Compose",
    "Standardize",
    "PadCrop",
    "RandomFlip",
    "standard_cifar_pipeline",
]

from repro.data.detection import (  # noqa: E402
    DetectionDataset,
    iou,
    make_object_detection,
    mean_iou,
)

__all__ += ["DetectionDataset", "make_object_detection", "iou", "mean_iou"]
