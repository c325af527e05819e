"""Tests for the data store (HDFS substitute)."""

import numpy as np
import pytest

from repro.data import DataStore, make_image_classification
from repro.exceptions import DatasetNotFoundError, StorageError


class TestDatasets:
    def test_put_get_roundtrip(self, tiny_dataset):
        store = DataStore()
        handle = store.put_dataset(tiny_dataset)
        assert handle.name == "tiny"
        assert handle.num_classes == 3
        fetched = store.get_dataset("tiny")
        np.testing.assert_array_equal(fetched.train_x, tiny_dataset.train_x)

    def test_missing_dataset_raises(self):
        with pytest.raises(DatasetNotFoundError):
            DataStore().get_dataset("nope")

    def test_list(self, tiny_dataset):
        store = DataStore()
        assert store.list_datasets() == []
        store.put_dataset(tiny_dataset)
        assert store.list_datasets() == ["tiny"]

    def test_io_accounting(self, tiny_dataset):
        store = DataStore()
        store.put_dataset(tiny_dataset)
        store.get_dataset("tiny")
        assert store.bytes_read > 0


class TestImportImages:
    def _make_folder(self, tmp_path, labels=("noodle", "rice"), per_label=6,
                     shape=(3, 4, 4)):
        rng = np.random.default_rng(0)
        for label in labels:
            folder = tmp_path / label
            folder.mkdir()
            for i in range(per_label):
                np.save(folder / f"img{i}.npy", rng.normal(size=shape))
        return str(tmp_path)

    def test_labels_from_subfolders(self, tmp_path):
        directory = self._make_folder(tmp_path)
        store = DataStore()
        handle = store.import_images(directory, val_fraction=0.25)
        assert handle.labels == ("noodle", "rice")
        assert handle.num_examples == 12
        ds = store.get_dataset(handle.name)
        assert ds.num_classes == 2
        assert ds.train_x.shape[0] + ds.val_x.shape[0] == 12

    def test_split_fractions(self, tmp_path):
        directory = self._make_folder(tmp_path, per_label=10)
        store = DataStore()
        handle = store.import_images(directory, val_fraction=0.2, test_fraction=0.1)
        ds = store.get_dataset(handle.name)
        assert ds.val_x.shape[0] == 4
        assert ds.test_x.shape[0] == 2
        assert ds.train_x.shape[0] == 14

    def test_rejects_missing_directory(self):
        with pytest.raises(StorageError, match="not a directory"):
            DataStore().import_images("/definitely/not/here")

    def test_rejects_empty_directory(self, tmp_path):
        with pytest.raises(StorageError, match="no label sub-folders"):
            DataStore().import_images(str(tmp_path))

    def test_rejects_inconsistent_shapes(self, tmp_path):
        folder = tmp_path / "a"
        folder.mkdir()
        np.save(folder / "x.npy", np.zeros((3, 4, 4)))
        np.save(folder / "y.npy", np.zeros((3, 5, 5)))
        with pytest.raises(StorageError, match="inconsistent"):
            DataStore().import_images(str(tmp_path))

    def test_rejects_bad_dimensionality(self, tmp_path):
        folder = tmp_path / "a"
        folder.mkdir()
        np.save(folder / "x.npy", np.zeros((4, 4)))
        with pytest.raises(StorageError, match="CHW"):
            DataStore().import_images(str(tmp_path))

    def test_rejects_all_validation_split(self, tmp_path):
        directory = self._make_folder(tmp_path, per_label=2)
        with pytest.raises(StorageError, match="no training data"):
            DataStore().import_images(directory, val_fraction=1.0)


class TestBlobs:
    def test_roundtrip(self):
        store = DataStore()
        store.put_blob("params/a", b"hello")
        assert store.get_blob("params/a") == b"hello"

    def test_list_by_prefix(self):
        store = DataStore()
        store.put_blob("params/a", b"1")
        store.put_blob("params/b", b"2")
        store.put_blob("other/c", b"3")
        assert store.fs.list_paths("params/") == ["params/a", "params/b"]

    def test_delete(self):
        store = DataStore()
        store.put_blob("x", b"1")
        store.delete_blobs(["x"])
        assert not store.has_blob("x")
        with pytest.raises(DatasetNotFoundError):
            store.get_blob("x")


class TestBlobRegressions:
    """Gaps the flat-namespace store had before the BlockStore re-base."""

    def test_overwrite_keeps_old_version_reachable(self):
        # Regression: a name collision used to silently destroy the old
        # blob. Now every overwrite appends a manifest version.
        store = DataStore()
        store.put_blob("model/ckpt", b"old weights")
        store.put_blob("model/ckpt", b"new weights")
        assert store.get_blob("model/ckpt") == b"new weights"
        assert store.get_blob("model/ckpt", version=1) == b"old weights"
        assert [m.version for m in store.versions("model/ckpt")] == [1, 2]

    def test_versions_of_missing_path_raises(self):
        with pytest.raises(DatasetNotFoundError):
            DataStore().versions("ghost")

    def test_concurrent_writers_last_writer_wins(self):
        # Two interleaved two-phase writes must each commit a complete
        # manifest — never a mixture of the writers' chunk lists.
        store = DataStore(chunk_size=4)
        first = store.fs.begin_write("p", b"AAAABBBBCCCC", writer="w1")
        second = store.fs.begin_write("p", b"XXXXYYYYZZZZ", writer="w2")
        store.fs.commit(first)
        store.fs.commit(second)
        assert store.get_blob("p") == b"XXXXYYYYZZZZ"
        assert store.get_blob("p", version=1) == b"AAAABBBBCCCC"

    def test_get_of_path_deleted_mid_read_raises_not_found(self):
        # A reader must see NotFound, never a partial blob.
        from repro.exceptions import NotFoundError

        store = DataStore(chunk_size=4)
        store.put_blob("p", b"AAAABBBBCCCCDDDD")
        reader = store.fs.read_chunks("p")
        assert next(reader) == b"AAAA"
        store.delete_blobs(["p"])
        with pytest.raises(NotFoundError):
            next(reader)
        # And the plain get after deletion maps to the dataset error.
        with pytest.raises(DatasetNotFoundError):
            store.get_blob("p")

    def test_blob_accounting_still_counts_logical_bytes(self):
        store = DataStore()
        store.put_blob("a", b"12345678")
        store.get_blob("a")
        assert store.bytes_read >= 8


class TestReadChunks:
    """``read_chunks`` is the one blob read; ``get_blob`` joins what it returns."""

    def test_the_chunks_are_the_block_stores_own_objects(self, monkeypatch):
        store = DataStore(chunk_size=4)
        store.put_blob("p", b"AAAABBBBCC")
        digests = store.fs.stat("p").digests
        calls = []
        get_chunk = store.blocks.get_chunk
        monkeypatch.setattr(store.blocks, "get_chunk",
                            lambda digest: calls.append(digest) or get_chunk(digest))
        chunks = store.read_chunks("p")
        assert chunks == [b"AAAA", b"BBBB", b"CC"]
        assert calls == list(digests)  # one get_chunk per chunk, in order
        assert all(chunk is get_chunk(digest) for chunk, digest in zip(chunks, digests))

    def test_missing_path_or_version_raises_dataset_not_found(self):
        store = DataStore(chunk_size=4)
        store.put_blob("p", b"AAAABBBB")
        with pytest.raises(DatasetNotFoundError):
            store.read_chunks("ghost")
        with pytest.raises(DatasetNotFoundError):
            store.read_chunks("p", version=2)
        assert store.bytes_read == 0

    @pytest.mark.parametrize("version", [None, 1])
    def test_a_version_deleted_mid_read_raises_dataset_not_found(self, monkeypatch,
                                                                 version):
        store = DataStore(chunk_size=4)
        store.put_blob("p", b"AAAABBBBCCCC")
        store.put_blob("p", b"XXXXBBBBCCCC")
        get_chunk = store.blocks.get_chunk

        def deleting(digest):
            chunk = get_chunk(digest)
            if store.has_blob("p"):
                store.delete_blobs(["p"])
            return chunk

        monkeypatch.setattr(store.blocks, "get_chunk", deleting)
        with pytest.raises(DatasetNotFoundError):
            store.read_chunks("p", version)
        assert store.bytes_read == 0

    def test_bytes_read_counts_as_get_blob_does(self):
        chunked, joined = DataStore(chunk_size=4), DataStore(chunk_size=4)
        for store in (chunked, joined):
            store.put_blob("p", b"AAAABBBBCC")
            store.put_blob("p", b"AAAABBBBCCDD")
        assert b"".join(chunked.read_chunks("p", version=1)) == joined.get_blob(
            "p", version=1) == b"AAAABBBBCC"
        assert chunked.bytes_read == joined.bytes_read == 10
        chunked.read_chunks("p")
        joined.get_blob("p")
        assert chunked.bytes_read == joined.bytes_read == 22

