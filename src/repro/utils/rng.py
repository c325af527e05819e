"""Deterministic random-number streams.

Every stochastic component in the library draws from a named stream
derived from a root seed. Deriving streams by name (rather than sharing
one generator) keeps experiments reproducible even when components are
reordered or run concurrently in the simulator.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["RngStream", "derive_rng"]


def _seed_from(root_seed: int, name: str) -> int:
    """Hash ``(root_seed, name)`` into a 63-bit seed."""
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & 0x7FFF_FFFF_FFFF_FFFF


def derive_rng(root_seed: int, name: str) -> np.random.Generator:
    """Return a NumPy generator deterministically derived from a name.

    >>> a = derive_rng(7, "arrivals")
    >>> b = derive_rng(7, "arrivals")
    >>> float(a.random()) == float(b.random())
    True
    """
    return np.random.default_rng(_seed_from(root_seed, name))


class RngStream:
    """A factory of named, deterministic random generators.

    A single :class:`RngStream` is created from the experiment's root
    seed; each subsystem asks for its own named generator, so adding a
    consumer never perturbs the draws seen by the others.
    """

    def __init__(self, root_seed: int = 0):
        self._root_seed = int(root_seed)
        self._issued: dict[str, np.random.Generator] = {}

    @property
    def root_seed(self) -> int:
        return self._root_seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object (state is shared), so a component can re-fetch its stream.
        """
        if name not in self._issued:
            self._issued[name] = derive_rng(self._root_seed, name)
        return self._issued[name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngStream(root_seed={self._root_seed}, issued={sorted(self._issued)})"
