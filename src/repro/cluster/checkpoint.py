"""Checkpointing of (small) master state for failure recovery.

Section 6.3: workers are stateless and simply restarted; masters hold
state (best trial so far, RL learner state) that Rafiki checkpoints for
fast recovery. Snapshots are deep-copied via pickle so later mutation of
the live object cannot corrupt a stored checkpoint.
"""

from __future__ import annotations

import pickle
from typing import Any

from repro.exceptions import ClusterError

__all__ = ["CheckpointStore"]


class CheckpointStore:
    """Versioned snapshots keyed by owner name."""

    #: snapshots kept per owner; saving past it drops the oldest.
    keep_last = 3

    def __init__(self):
        self._snapshots: dict[str, list[bytes]] = {}

    def save(self, owner: str, state: Any) -> int:
        """Snapshot ``state`` for ``owner``; return the version number."""
        blobs = self._snapshots.setdefault(owner, [])
        blobs.append(pickle.dumps(state, pickle.HIGHEST_PROTOCOL))
        if len(blobs) > self.keep_last:
            del blobs[: len(blobs) - self.keep_last]
        return len(blobs)

    def restore(self, owner: str, version: int | None = None) -> Any:
        """Return a deep copy of the latest (or requested) snapshot."""
        blobs = self._snapshots.get(owner)
        if not blobs:
            raise ClusterError(f"no checkpoint for {owner!r}")
        if version is None:
            blob = blobs[-1]
        else:
            if not 1 <= version <= len(blobs):
                raise ClusterError(f"no checkpoint version {version} for {owner!r}")
            blob = blobs[version - 1]
        return pickle.loads(blob)

    def has(self, owner: str) -> bool:
        return bool(self._snapshots.get(owner))

    def versions(self, owner: str) -> int:
        return len(self._snapshots.get(owner, []))
