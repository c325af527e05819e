"""An HDFS-like data store.

Rafiki keeps training data in HDFS; here the store is a hierarchical
in-memory namespace with the same user-facing operations:

* ``import_images(directory)`` ingests a folder of images where each
  sub-folder names the label (Figure 2's ``rafiki.import_images``);
  files are ``.npy`` arrays since no image codecs ship offline;
* ``put_dataset`` / ``get_dataset`` register in-memory datasets (the
  synthetic generators);
* blobs can be stored under arbitrary paths (used by the parameter
  server for cold parameters).

Since PR 8 the blob namespace is no longer a flat dict: blobs live in
a :class:`~repro.data.fs.FileNamespace` over a chunked, replicated,
content-addressed :class:`~repro.data.blockstore.BlockStore` — so
near-duplicate blobs (successive model checkpoints) dedup structurally,
every chunk has R replicas, and overwrites retain version history
reachable via :meth:`DataStore.versions`. The blob API is unchanged;
several stores may share one block store (pass ``block_store=``) to
dedup across them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.data.blockstore import DEFAULT_CHUNK_SIZE, BlockStore
from repro.data.datasets import ImageDataset
from repro.data.fs import FileNamespace, Manifest
from repro.exceptions import DatasetNotFoundError, NotFoundError, StorageError
from repro.tenancy import TenantRegistry, current_tenant

__all__ = ["DataStore", "DatasetHandle"]


@dataclass
class DatasetHandle:
    """A reference to a dataset stored in a :class:`DataStore`."""

    name: str
    num_examples: int
    num_classes: int
    image_shape: tuple[int, ...]
    labels: tuple[str, ...] = ()


class DataStore:
    """Hierarchical namespace of datasets and raw blobs.

    Datasets stay in-memory handles; blobs are chunked into the block
    store. ``nodes``/``replicas``/``chunk_size`` size a private block
    store, or pass an existing ``block_store`` to share its chunk pool
    (and dedup) with other stores.
    """

    def __init__(
        self,
        name: str = "hdfs",
        block_store: BlockStore | None = None,
        nodes: int = 3,
        replicas: int = 2,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        tenants: TenantRegistry | None = None,
    ):
        self.name = name
        #: when set, every blob's *current* version counts its logical
        #: size against its writer's ``store_bytes`` quota.
        self.tenants = tenants
        #: writer and size of each blob's current version, by path.
        self._blob_charges: dict[str, tuple[str, int]] = {}
        if tenants is not None:
            tenants.ledger.govern("store_bytes", self, lambda store, tenant: sum(
                size for writer, size in store._blob_charges.values() if writer == tenant
            ))
        self._datasets: dict[str, ImageDataset] = {}
        self.blocks = block_store or BlockStore(
            nodes=nodes, replicas=replicas, chunk_size=chunk_size
        )
        self.fs = FileNamespace(self.blocks, name=name)
        self.bytes_read = 0

    # ------------------------------------------------------------------
    # datasets
    # ------------------------------------------------------------------

    def put_dataset(self, dataset: ImageDataset, labels: tuple[str, ...] = ()) -> DatasetHandle:
        """Register an in-memory dataset under its own name."""
        handle = DatasetHandle(
            name=dataset.name,
            num_examples=len(dataset),
            num_classes=dataset.num_classes,
            image_shape=dataset.image_shape,
            labels=labels,
        )
        self._datasets[dataset.name] = dataset
        return handle

    def get_dataset(self, name: str) -> ImageDataset:
        """Fetch a dataset by name (the paper's ``rafiki.download``)."""
        if name not in self._datasets:
            raise DatasetNotFoundError(name)
        dataset = self._datasets[name]
        self.bytes_read += sum(x.nbytes for x, _ in dataset.splits().values())
        return dataset

    def list_datasets(self) -> list[str]:
        return sorted(self._datasets)

    # ------------------------------------------------------------------
    # directory ingestion
    # ------------------------------------------------------------------

    def import_images(
        self,
        directory: str,
        name: str | None = None,
        val_fraction: float = 0.2,
        test_fraction: float = 0.0,
    ) -> DatasetHandle:
        """Ingest ``directory/<label>/<file>.npy`` into a dataset.

        All images from the same sub-folder share the sub-folder's name
        as label, mirroring Figure 2. Arrays must share one CHW shape with
        no zero-length axis and hold finite bool, integer or float values;
        anything else raises :class:`StorageError` before a dataset is
        registered.
        """
        if not os.path.isdir(directory):
            raise StorageError(f"not a directory: {directory!r}")
        label_names = sorted(
            entry for entry in os.listdir(directory) if os.path.isdir(os.path.join(directory, entry))
        )
        if not label_names:
            raise StorageError(f"no label sub-folders under {directory!r}")
        images: list[np.ndarray] = []
        labels: list[int] = []
        for class_id, label in enumerate(label_names):
            folder = os.path.join(directory, label)
            for fname in sorted(os.listdir(folder)):
                if not fname.endswith(".npy"):
                    continue
                try:
                    array = np.load(os.path.join(folder, fname))
                except ValueError as exc:  # an object array, or not an .npy
                    raise StorageError(f"{fname!r}: {exc}") from exc
                if array.dtype.kind not in "biuf":
                    raise StorageError(f"{fname!r}: expected numbers, got dtype {array.dtype}")
                if array.ndim != 3 or not array.size:
                    raise StorageError(
                        f"{fname!r}: expected a non-empty CHW array, got shape {array.shape}"
                    )
                if not np.isfinite(array).all():
                    raise StorageError(f"{fname!r}: holds a NaN or infinite value")
                images.append(array.astype(np.float64))
                labels.append(class_id)
        if not images:
            raise StorageError(f"no .npy images found under {directory!r}")
        shapes = {img.shape for img in images}
        if len(shapes) != 1:
            raise StorageError(f"inconsistent image shapes: {sorted(shapes)}")

        stacked = np.stack(images)
        label_arr = np.asarray(labels)
        rng = np.random.default_rng(0)
        order = rng.permutation(stacked.shape[0])
        stacked, label_arr = stacked[order], label_arr[order]
        n = stacked.shape[0]
        n_test = int(n * test_fraction)
        n_val = int(n * val_fraction)
        n_train = n - n_val - n_test
        if n_train <= 0:
            raise StorageError(
                f"split fractions leave no training data (n={n}, val={n_val}, test={n_test})"
            )
        dataset = ImageDataset(
            name=name or os.path.basename(os.path.normpath(directory)),
            train_x=stacked[:n_train],
            train_y=label_arr[:n_train],
            val_x=stacked[n_train : n_train + n_val],
            val_y=label_arr[n_train : n_train + n_val],
            test_x=stacked[n_train + n_val :],
            test_y=label_arr[n_train + n_val :],
            num_classes=len(label_names),
        )
        return self.put_dataset(dataset, labels=tuple(label_names))

    # ------------------------------------------------------------------
    # raw blobs
    # ------------------------------------------------------------------

    def put_blob(self, path: str, blob: bytes, basis: str | None = None) -> None:
        """Store ``blob`` under ``path`` (a new version if it exists).

        ``basis`` names the path whose latest version the blob is compared
        with chunk by chunk (default: ``path``), so unchanged chunks are
        not hashed; see :meth:`FileNamespace.begin_write`.

        With a tenant registry attached, the ambient tenant's
        ``store_bytes`` quota is checked *before* any chunk is stored (a
        denied write stores nothing; the version it would displace is
        headroom), and the blob is recorded against the tenant once the
        write lands (a failed write holds nothing).
        """
        tenant = current_tenant()
        if self.tenants is not None:
            displaced = self._blob_charges.get(path)
            headroom = displaced[1] if displaced and displaced[0] == tenant else 0
            self.tenants.check(tenant, "store_bytes", len(blob) - headroom)
        tracer = telemetry.get_tracer()
        before = self.blocks.served("put") if tracer.enabled else None
        with tracer.span("data.store.put_blob") as span:
            manifest = self.fs.write(path, bytes(blob), writer=self.name, basis=basis)
        span.tag(chunks=len(manifest.digests), nodes=self._nodes_since(before, "put"))
        self._blob_charges[path] = (tenant, len(blob))
        if self.tenants is not None:
            self.tenants.ledger.admit(tenant, "store_bytes")

    def get_blob(self, path: str, version: int | None = None) -> bytes:
        """Fetch a blob (current version by default, or an older one)."""
        return b"".join(self.read_chunks(path, version))

    def read_chunks(self, path: str, version: int | None = None) -> list[bytes]:
        """A blob's chunks, in order: the block store's own objects, uncopied.

        The read goes through :meth:`FileNamespace.read_chunks`: one
        ``get_chunk`` per chunk, the manifest re-checked before each, so a
        version deleted mid-read raises instead of yielding a truncated
        list. A missing path or version raises
        :class:`DatasetNotFoundError`. The chunks count toward
        ``bytes_read`` as the joined blob would. Chunks are immutable
        ``bytes``: callers may keep them, never write to them.
        """
        tracer = telemetry.get_tracer()
        before = self.blocks.served("get") if tracer.enabled else None
        with tracer.span("data.store.read_chunks") as span:
            try:
                chunks = list(self.fs.read_chunks(path, version))
            except DatasetNotFoundError:
                raise
            except NotFoundError as exc:
                raise DatasetNotFoundError(path) from exc
        span.tag(chunks=len(chunks), nodes=self._nodes_since(before, "get"))
        self.bytes_read += sum(map(len, chunks))
        return chunks

    def _nodes_since(self, before: dict[str, int] | None, op: str) -> list[str] | None:
        """The datanodes the block store's ``op`` calls went to since
        ``before`` (a :meth:`BlockStore.served` reading, taken only while
        the tracer keeps spans; ``None`` without one).

        A blob read or write is one span, not one per chunk: a checkpoint
        spans about 17 chunks, and these tags say where they went."""
        if before is None:
            return None
        return [node for node, calls in self.blocks.served(op).items() if calls > before[node]]

    def has_blob(self, path: str) -> bool:
        return self.fs.exists(path)

    def delete_blobs(self, paths) -> None:
        """Delete each of ``paths`` (every version), collecting chunks once.

        Raises :class:`DatasetNotFoundError` for the first missing path,
        before anything is deleted.
        """
        paths = list(paths)
        for path in paths:
            if not self.fs.exists(path):
                raise DatasetNotFoundError(path)
        self.fs.delete_many(paths)
        for path in paths:
            self._blob_charges.pop(path, None)

    def versions(self, path: str) -> list[Manifest]:
        """Every retained manifest version of a blob, oldest first.

        Overwriting a path no longer destroys the previous contents —
        pass ``version=`` to :meth:`get_blob` to read one back.
        """
        try:
            return self.fs.versions(path)
        except NotFoundError as exc:
            raise DatasetNotFoundError(path) from exc

    def audit(self) -> dict:
        """Replication/dedup health of the underlying block store."""
        return self.blocks.audit()

    def repair(self) -> int:
        """Re-replicate under-replicated chunks; returns copies made."""
        return self.blocks.repair()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DataStore({self.name!r}, datasets={len(self._datasets)}, "
            f"blobs={len(self.fs.list_paths())})"
        )
