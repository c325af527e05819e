"""Namenode-style file namespace over the chunked block store.

:class:`FileNamespace` maps ``path -> [chunk digests]`` through
versioned, immutable :class:`Manifest` records, playing the namenode
role to :class:`repro.data.blockstore.BlockStore`'s datanodes: the
namespace owns *names* and *versions*, the block store owns *bytes*.

Two semantics the regression tests pin down live here:

* **last-writer-wins commits** — a write is two phases,
  :meth:`FileNamespace.begin_write` (chunks uploaded, nothing visible)
  then :meth:`FileNamespace.commit` (chunks healed via
  ``BlockStore.ensure``, then the manifest appended atomically). Two
  concurrent writers to one path each commit a *complete* manifest;
  whichever commits last wins, and no reader ever sees an interleaved
  chunk list.
* **no partial reads** — :meth:`FileNamespace.read_chunks` re-checks
  the manifest before serving each chunk; if the path (or the version
  being read) was deleted mid-read it raises
  :class:`~repro.exceptions.NotFoundError` instead of returning a
  truncated blob.

Overwrites never destroy history: every commit appends a new version
and old manifests stay reachable through
:meth:`FileNamespace.versions` until the path is deleted.

Chunk references live here too: the namespace registers one reader on
its store over every retained manifest and every write in flight (from
``begin_write`` until its commit, or until a failed :meth:`FileNamespace.write`
drops it), and a delete or a failed write asks the store to collect.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import telemetry
from repro.data.blockstore import BlockStore
from repro.exceptions import NotFoundError, StorageError

__all__ = ["FileNamespace", "Manifest", "PendingWrite"]


@dataclass(frozen=True)
class Manifest:
    """One immutable version of one path: its ordered chunk digests."""

    path: str
    version: int
    chunk_size: int
    digests: tuple[str, ...]
    writer: str = ""


@dataclass(frozen=True)
class PendingWrite:
    """A write whose chunks are uploaded but whose manifest isn't committed.

    Holds the full payload so :meth:`FileNamespace.commit` can re-store
    any chunk that lost every replica between upload and commit — the
    zero-bytes-lost guarantee under mid-write node kills.
    """

    path: str
    data: bytes
    digests: tuple[str, ...]
    writer: str = ""


class FileNamespace:
    """Versioned ``path -> manifest`` namespace over a :class:`BlockStore`.

    Multiple namespaces may share one block store: names are isolated,
    identical bytes dedup across all of them, and a chunk stays stored
    while any of them references it.
    """

    def __init__(self, store: BlockStore, name: str = "fs"):
        self.store = store
        self.name = name
        #: path -> list of manifests, oldest first; last one is current.
        self._manifests: dict[str, list[Manifest]] = {}
        #: writes between begin_write and commit, by identity.
        self._pending: dict[int, PendingWrite] = {}
        store.add_reader(self, FileNamespace._references)
        registry = telemetry.get_registry()
        self._heal_count = telemetry.Counter(
            "repro_fs_commit_heals_total",
            "Chunks re-stored at commit after losing every replica mid-write.",
            registry,
        ).labels(namespace=name)
        self._commit_count = telemetry.Counter(
            "repro_fs_commits_total", "Manifest versions committed.", registry
        ).labels(namespace=name)

    def _references(self):
        """The digests of every retained manifest and every write in flight."""
        for history in self._manifests.values():
            for manifest in history:
                yield manifest.digests
        for pending in self._pending.values():
            yield pending.digests

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------

    def begin_write(
        self, path: str, data: bytes, writer: str = "", on_chunk=None, basis=None
    ):
        """Phase one: upload chunks; the path is untouched until commit.

        ``basis`` names the path whose latest manifest the upload is
        compared against, chunk by chunk, so that only chunks that
        differ from it are hashed (:meth:`BlockStore.put`). It defaults
        to ``path``: an overwrite compares against the version it
        replaces. A basis path with no versions compares against
        nothing; either way the digests are the same. The comparison
        reads the store's own copy of each basis chunk, not a datanode,
        so it fires no fault point and a chaos plan sees the same
        operations with or without a basis.
        """
        if not path:
            raise StorageError("path must be non-empty")
        data = bytes(data)
        history = self._manifests.get(path if basis is None else basis)
        digests = self.store.put(
            data, on_chunk=on_chunk, basis=history[-1].digests if history else ()
        )
        pending = PendingWrite(path=path, data=data, digests=tuple(digests), writer=writer)
        self._pending[id(pending)] = pending
        return pending

    def commit(self, pending: PendingWrite) -> Manifest:
        """Phase two: heal any replica lost mid-write, then publish.

        The manifest append is the commit point — a single atomic
        mutation, so concurrent writers serialize into last-writer-wins
        whole manifests rather than interleaved chunk lists. The write
        stays in flight until then, so a failed commit can be retried.
        """
        healed = self.store.ensure(list(pending.digests), pending.data)
        if healed:
            self._heal_count.inc()
        history = self._manifests.setdefault(pending.path, [])
        manifest = Manifest(
            path=pending.path,
            version=len(history) + 1,
            chunk_size=self.store.chunk_size,
            digests=pending.digests,
            writer=pending.writer,
        )
        history.append(manifest)
        self._pending.pop(id(pending), None)
        self._commit_count.inc()
        return manifest

    def write(
        self, path: str, data: bytes, writer: str = "", on_chunk=None, basis=None
    ) -> Manifest:
        """begin_write + commit in one call (the common, uncontended case).

        A commit that fails drops the write from flight and collects its
        chunks, so a failed write leaves nothing no one else references.
        """
        pending = self.begin_write(
            path, data, writer=writer, on_chunk=on_chunk, basis=basis
        )
        try:
            return self.commit(pending)
        except BaseException:
            self._pending.pop(id(pending), None)
            self.store.collect(pending.digests)
            raise

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def stat(self, path: str, version: int | None = None) -> Manifest:
        """The manifest for ``path`` (current version by default)."""
        history = self._manifests.get(path)
        if not history:
            raise NotFoundError(f"no such path: {path!r}")
        if version is None:
            return history[-1]
        for manifest in history:
            if manifest.version == version:
                return manifest
        raise NotFoundError(f"no version {version} of path {path!r}")

    def exists(self, path: str) -> bool:
        """Whether ``path`` currently resolves to a manifest."""
        return bool(self._manifests.get(path))

    def versions(self, path: str) -> list[Manifest]:
        """Every retained manifest of ``path``, oldest first."""
        history = self._manifests.get(path)
        if not history:
            raise NotFoundError(f"no such path: {path!r}")
        return list(history)

    def read_chunks(self, path: str, version: int | None = None):
        """Yield the file's chunks, re-validating the manifest each step.

        If the path or the version being read is deleted mid-iteration,
        raises :class:`NotFoundError` — a reader never silently gets a
        truncated blob.
        """
        manifest = self.stat(path, version)
        for digest in manifest.digests:
            current = self._manifests.get(path)
            if not current or manifest not in current:
                raise NotFoundError(
                    f"path {path!r} version {manifest.version} deleted mid-read"
                )
            yield self.store.get_chunk(digest)

    def read(self, path: str, version: int | None = None) -> bytes:
        """The file's full contents (current version by default)."""
        return b"".join(self.read_chunks(path, version))

    # ------------------------------------------------------------------
    # namespace management
    # ------------------------------------------------------------------

    def delete(self, path: str) -> int:
        """Drop every version of ``path``; returns versions removed.

        Their chunks that no manifest or write in flight anywhere still
        references are collected by the store (or trashed for
        currently-dead datanodes).
        """
        return self.delete_many([path])[0]

    def delete_many(self, paths) -> list[int]:
        """:meth:`delete` each of ``paths`` with one collection for all.

        Raises :class:`NotFoundError` for the first path with no version,
        before anything is dropped. Returns the versions removed per path.
        """
        paths = list(dict.fromkeys(paths))
        for path in paths:
            if not self._manifests.get(path):
                raise NotFoundError(f"no such path: {path!r}")
        histories = [self._manifests.pop(path) for path in paths]
        self.store.collect(
            d for history in histories for manifest in history for d in manifest.digests
        )
        return [len(history) for history in histories]

    def list_paths(self, prefix: str = "") -> list[str]:
        """Paths with at least one version, filtered by prefix, sorted."""
        return sorted(p for p in self._manifests if p.startswith(prefix))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FileNamespace({self.name!r}, paths={len(self._manifests)}, "
            f"store={self.store!r})"
        )
