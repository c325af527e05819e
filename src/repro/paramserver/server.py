"""The parameter server.

Semantics follow Section 6.2:

* parameters are stored under ``(key, version)``; ``put`` appends a new
  version, ``get`` returns the latest unless a version is requested;
* hot parameters are served from an LRU cache; cold ones are pickled
  into the data store (the HDFS stand-in) and reloaded on demand;
* entries carry metadata — model name, dataset, measured performance,
  and a privacy flag. ``find_pretrained`` returns public checkpoints of
  the same model trained on *other* datasets (the training warm-up the
  paper cites from TFX);
* :meth:`fetch_shape_pool` exposes the "shape matched W" lookup used by
  the collaborative tuning scheme for architecture knobs.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro import chaos, telemetry
from repro.data.store import DataStore
from repro.exceptions import ParameterNotFoundError
from repro.paramserver.cache import LRUCache
from repro.tenancy import TenantRegistry, current_tenant
from repro.utils.retry import RetryPolicy

__all__ = ["ParameterServer", "ParameterEntry", "shape_pool"]


@dataclass
class ParameterEntry:
    """Metadata for one stored parameter version."""

    key: str
    version: int
    model: str = ""
    dataset: str = ""
    performance: float = float("nan")
    public: bool = True
    nbytes: int = 0
    extra: dict = field(default_factory=dict)
    #: tenant whose ``ps_bytes`` quota this version is charged against,
    #: or ``None`` when stored by a server with no registry attached.
    tenant: str | None = None

    @property
    def path(self) -> str:
        return f"params/{self.key}/v{self.version}"


def _state_size(state: dict[str, np.ndarray]) -> int:
    return int(sum(value.nbytes for value in state.values()))


class ParameterServer:
    """Versioned parameter storage with an LRU hot cache.

    The index (entries over one :class:`DataStore` namespace) is the
    only durable state; the cache a value is served from is passed to
    :meth:`_put_once` / :meth:`_get_once`, which lets
    :class:`~repro.paramserver.sharded.ShardedParameterServer` serve
    this same index through several failover caches.
    """

    def __init__(
        self,
        store: DataStore | None = None,
        cache_bytes: int = 256 * 1024 * 1024,
        retry: RetryPolicy | None = None,
        tenants: TenantRegistry | None = None,
    ):
        #: when set, every put charges the ambient tenant's ``ps_bytes``
        #: quota (:class:`~repro.exceptions.QuotaExceededError` before
        #: anything is stored) and deletes release it.
        self.tenants = tenants
        self._store = store if store is not None else DataStore("ps-backing")
        self._cache_bytes = cache_bytes
        self._entries: dict[str, list[ParameterEntry]] = {}
        self._stored_bytes = 0
        #: optional retry policy for push/pull; when set, injected
        #: faults at the ``paramserver.push``/``paramserver.pull``
        #: fault points (and any other RafikiError) are retried with
        #: deterministic backoff instead of propagating.
        self.retry = retry

    @cached_property
    def cache(self) -> LRUCache:
        """The hot cache, built on first use."""
        return LRUCache(self._cache_bytes, size_of=_state_size, name="paramserver")

    def _caches(self) -> list[LRUCache]:
        """Every cache that may hold a value of this index."""
        return [self.cache]

    @property
    def store(self) -> DataStore:
        return self._store

    # ------------------------------------------------------------------
    # put / get
    # ------------------------------------------------------------------

    def put(
        self,
        key: str,
        state: dict[str, np.ndarray],
        model: str = "",
        dataset: str = "",
        performance: float = float("nan"),
        public: bool = True,
        **extra,
    ) -> ParameterEntry:
        """Store a new version of ``key`` and return its entry.

        Passes through the ``paramserver.push`` fault point; with a
        :class:`~repro.utils.retry.RetryPolicy` configured (use
        ``retry_on=(InjectedFault,)`` so lookup errors still propagate
        immediately), injected failures and drops are retried with
        deterministic backoff.
        """
        if self.retry is not None:
            return self.retry.call(
                self._put_once, self.cache, key, state, model, dataset,
                performance, public, name="paramserver.push", **extra,
            )
        return self._put_once(
            self.cache, key, state, model, dataset, performance, public, **extra
        )

    def _put_once(
        self,
        cache: LRUCache,
        key: str,
        state: dict[str, np.ndarray],
        model: str = "",
        dataset: str = "",
        performance: float = float("nan"),
        public: bool = True,
        **extra,
    ) -> ParameterEntry:
        chaos.fire("paramserver.push")
        entry = ParameterEntry(
            key=key,
            version=len(self._entries.get(key, [])) + 1,
            model=model,
            dataset=dataset,
            performance=performance,
            public=public,
            nbytes=_state_size(state),
            extra=dict(extra),
        )
        if self.tenants is not None:
            entry.tenant = current_tenant()
            self.tenants.charge(entry.tenant, "ps_bytes", entry.nbytes)
        state_copy = {name: value.copy() for name, value in state.items()}
        try:
            self._store.put_blob(
                entry.path, pickle.dumps(state_copy, pickle.HIGHEST_PROTOCOL)
            )
        except BaseException:
            # The blob never landed (store quota denial, injected
            # fault): roll back the ps_bytes charge and record no
            # version, or get() of a phantom entry would fail later.
            if self.tenants is not None:
                self.tenants.release(entry.tenant, "ps_bytes", entry.nbytes)
            raise
        versions = self._entries.setdefault(key, [])
        versions.append(entry)
        cache.put(entry.path, state_copy)
        self._stored_bytes += entry.nbytes
        telemetry.get_registry().counter(
            "repro_paramserver_push_total", "Parameter versions pushed (put)."
        ).inc()
        self._publish_storage_gauges()
        return entry

    def _publish_storage_gauges(self) -> None:
        registry = telemetry.get_registry()
        registry.gauge(
            "repro_paramserver_stored_bytes", "Total bytes across stored versions."
        ).set(self._stored_bytes)
        registry.gauge(
            "repro_paramserver_keys", "Distinct parameter keys stored."
        ).set(len(self._entries))

    def get(self, key: str, version: int | None = None) -> dict[str, np.ndarray]:
        """Fetch parameters (latest version unless specified).

        Passes through the ``paramserver.pull`` fault point (retried
        under the configured policy, like :meth:`put`).
        """
        if self.retry is not None:
            return self.retry.call(
                self._get_once, self.cache, key, version, name="paramserver.pull"
            )
        return self._get_once(self.cache, key, version)

    def _get_once(
        self, cache: LRUCache, key: str, version: int | None = None
    ) -> dict[str, np.ndarray]:
        chaos.fire("paramserver.pull")
        telemetry.get_registry().counter(
            "repro_paramserver_pull_total", "Parameter fetches (get)."
        ).inc()
        entry = self.get_entry(key, version)
        cached = cache.get(entry.path)
        if cached is not None:
            return {name: value.copy() for name, value in cached.items()}
        state = pickle.loads(self._store.get_blob(entry.path))
        cache.put(entry.path, state)
        return {name: value.copy() for name, value in state.items()}

    def get_entry(self, key: str, version: int | None = None) -> ParameterEntry:
        """Metadata of a stored version (latest unless specified)."""
        versions = self._entries.get(key)
        if not versions:
            raise ParameterNotFoundError(key)
        if version is None:
            return versions[-1]
        if not 1 <= version <= len(versions):
            raise ParameterNotFoundError(f"{key}@v{version}")
        return versions[version - 1]

    def has(self, key: str) -> bool:
        """Whether any version of ``key`` is stored."""
        return key in self._entries

    def keys(self) -> list[str]:
        """All stored keys, sorted."""
        return sorted(self._entries)

    def versions(self, key: str) -> int:
        """How many versions of ``key`` exist (0 when absent)."""
        return len(self._entries.get(key, []))

    def delete(self, key: str) -> None:
        """Drop every version of ``key`` from every cache and the backing store.

        A re-created key restarts at version 1 and reuses its paths, so
        any cache that ever served the old bytes must forget them.
        """
        versions = self._entries.pop(key, None)
        if versions is None:
            raise ParameterNotFoundError(key)
        caches = self._caches()
        for entry in versions:
            for cache in caches:
                cache.invalidate(entry.path)
            self._stored_bytes -= entry.nbytes
            if self.tenants is not None and entry.tenant is not None:
                self.tenants.release(entry.tenant, "ps_bytes", entry.nbytes)
            if self._store.has_blob(entry.path):
                self._store.delete_blob(entry.path)
        self._publish_storage_gauges()

    # ------------------------------------------------------------------
    # collaborative-tuning support
    # ------------------------------------------------------------------

    def put_if_better(
        self,
        key: str,
        state: dict[str, np.ndarray],
        performance: float,
        **meta,
    ) -> bool:
        """Store ``state`` only if it beats the stored performance.

        Implements the overwrite rule of Section 4.2.2: "If the
        performance of the new trial is better than the older one, we
        overwrite the W in the parameter server". A NaN candidate never
        displaces a real measurement (``NaN <= x`` is False for every
        ``x``, so without the explicit check a crashed trial's NaN
        would overwrite a better checkpoint).
        """
        if self.has(key):
            current = self.get_entry(key).performance
            if np.isnan(performance) and not np.isnan(current):
                return False
            if not np.isnan(current) and performance <= current:
                return False
        self.put(key, state, performance=performance, **meta)
        return True

    def fetch_shape_pool(self, key: str, version: int | None = None) -> dict[tuple[int, ...], list[np.ndarray]]:
        """Group a checkpoint's arrays by shape for shape-matched init."""
        return shape_pool(self.get(key, version))

    def find_pretrained(self, model: str, exclude_dataset: str = "") -> ParameterEntry | None:
        """Best *public* checkpoint of ``model`` from another dataset.

        Used for cross-dataset training warm-up: parameters trained for
        the same model on different data are shared when public.
        """
        best: ParameterEntry | None = None
        for versions in self._entries.values():
            for entry in versions:
                if not entry.public or entry.model != model:
                    continue
                if exclude_dataset and entry.dataset == exclude_dataset:
                    continue
                if best is None or (
                    not np.isnan(entry.performance)
                    and (np.isnan(best.performance) or entry.performance > best.performance)
                ):
                    best = entry
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ParameterServer(keys={len(self._entries)}, "
            f"cache_hit_rate={self.cache.hit_rate:.2f})"
        )


def shape_pool(state: dict[str, np.ndarray]) -> dict[tuple[int, ...], list[np.ndarray]]:
    """Group a checkpoint's arrays by shape (the "shape matched W" lookup)."""
    pool: dict[tuple[int, ...], list[np.ndarray]] = {}
    for value in state.values():
        pool.setdefault(value.shape, []).append(value)
    return pool
