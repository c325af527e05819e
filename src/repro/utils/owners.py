"""Registrations that hold their owner weakly: the one rule every
central registry follows.

A registry that reads its owners' state or calls back into them — gauge
readers (:meth:`repro.telemetry.Gauge.set_function`), the usage ledger's
holdings (:meth:`repro.tenancy.UsageLedger.govern`), the block store's
chunk references (:meth:`repro.data.BlockStore.add_reader`) and the
cluster's recovery hooks (:meth:`repro.cluster.ClusterManager.on_recovery`)
— takes the *owner* and an unbound ``read(owner, ...)``, and keeps a
:class:`WeakReader`: a weak reference to the owner beside the reader.
Nothing a registry holds keeps an owner alive, so dropping the owner
ends every registration it made, and a dead owner's reader is never
called again.

Owners are freed by reference counting (none sits in a reference
cycle), so when a registration ends does not depend on when the cyclic
collector runs. A reader that is a bound method of its owner, or a
closure over it, would keep the owner alive through the registry:
:class:`WeakReader` refuses both.
"""

from __future__ import annotations

import weakref
from typing import Any, Callable

__all__ = ["WeakReader", "live"]


class WeakReader:
    """``read(owner, ...)`` with the owner held weakly: ``owner()`` is the
    owner, or ``None`` once it is gone."""

    __slots__ = ("owner", "read")

    def __init__(self, owner: Any, read: Callable[..., Any]):
        cells = getattr(read, "__closure__", None) or ()
        if getattr(read, "__self__", None) is owner or any(
            cell.cell_contents is owner for cell in cells
        ):
            raise TypeError(f"{read!r} holds its owner: register an unbound reader")
        self.owner = weakref.ref(owner)
        self.read = read


def live(readers: list[WeakReader]) -> list[tuple[Any, Callable[..., Any]]]:
    """``(owner, read)`` of each reader whose owner lives, in registration
    order; the dead ones are dropped from ``readers``."""
    pairs = [(reader.owner(), reader.read) for reader in readers]
    if any(owner is None for owner, _ in pairs):
        readers[:] = [reader for reader in readers if reader.owner() is not None]
        pairs = [(owner, read) for owner, read in pairs if owner is not None]
    return pairs
