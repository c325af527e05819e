"""Tenant registry: identities, per-tenant quotas, and a usage ledger.

The registry is the single source of truth for *who* may use the
shared cluster and *how much* of each governed resource they may hold
at once. Four resources are governed:

``trials``
    concurrently placed tuning workers (one per parallel trial),
``replicas``
    concurrently placed inference replicas,
``ps_bytes``
    bytes of parameter state held in the parameter server,
``store_bytes``
    logical bytes of blobs held in the data store.

Quotas are *concurrent-holding* limits, not rate limits, so a denied
request can succeed later without any configuration change. Holdings
are read off the owners' own records (:meth:`UsageLedger.govern`): an
owner checks before it acts and records the object once the act
succeeded, so a failed operation holds nothing and rolls nothing back.
The ledger holds each owner weakly (:mod:`repro.utils.owners`): a
dropped owner holds nothing.
Denials raise :class:`~repro.exceptions.QuotaExceededError` (HTTP 429
at the gateway); unknown or suspended tenants raise
:class:`~repro.exceptions.TenantAccessError` (HTTP 403).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro import telemetry
from repro.exceptions import QuotaExceededError, TenantAccessError
from repro.tenancy.context import DEFAULT_TENANT
from repro.utils.owners import WeakReader, live

__all__ = ["TenantQuota", "Tenant", "UsageLedger", "TenantRegistry"]

#: Resource names the ledger and quotas understand.
RESOURCES = ("trials", "replicas", "ps_bytes", "store_bytes")


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant concurrent-holding limits; ``None`` means unlimited."""

    #: maximum concurrently placed tuning workers (parallel trials).
    trials: int | None = None
    #: maximum concurrently placed inference replicas.
    replicas: int | None = None
    #: maximum bytes of parameter-server state held at once.
    ps_bytes: int | None = None
    #: maximum logical bytes of data-store blobs held at once.
    store_bytes: int | None = None

    def limit(self, resource: str) -> float | None:
        """Return the limit for ``resource`` (``None`` = unlimited)."""
        if resource not in RESOURCES:
            raise ValueError(f"unknown quota resource {resource!r}")
        return getattr(self, resource)


@dataclass
class Tenant:
    """One registered customer of the shared control plane."""

    name: str
    quota: TenantQuota = field(default_factory=TenantQuota)
    #: suspended tenants fail :meth:`TenantRegistry.resolve` with a 403.
    active: bool = True


class UsageLedger:
    """Reads each tenant's holdings off the owners' readers; keeps no numbers.

    A (tenant, resource) pair shows in :meth:`snapshot` and
    ``repro_tenant_usage`` from the first time an owner admits it."""

    def __init__(self) -> None:
        self._readers: dict[str, list[WeakReader]] = {r: [] for r in RESOURCES}
        #: resources admitted for each tenant, first-admitted order.
        self._seen: dict[str, list[str]] = {}

    def govern(self, resource: str, owner, holdings: Callable[[object, str], float]) -> None:
        """Count ``holdings(owner, tenant)`` toward every tenant's ``resource``
        while ``owner`` lives (owners call this once where they are built)."""
        self._readers[resource].append(WeakReader(owner, holdings))

    def usage(self, tenant: str, resource: str) -> float:
        """Current holding of ``resource`` by ``tenant``, read off its live owners."""
        readers = self._readers.get(resource, [])
        return float(sum(read(owner, tenant) for owner, read in live(readers)))

    def admit(self, tenant: str, resource: str) -> None:
        """An owner recorded what a check passed: the pair's first admission
        registers its usage series."""
        resources = self._seen.setdefault(tenant, [])
        if resource not in resources:
            resources.append(resource)
            telemetry.get_registry().gauge(
                "repro_tenant_usage",
                "Governed resource currently held, by tenant and resource.",
            ).set_function(
                self, lambda ledger: ledger.usage(tenant, resource),
                tenant=tenant, resource=resource,
            )

    def snapshot(self) -> dict[str, dict[str, float]]:
        """Every seen pair's holding, for dashboards and scenario traces."""
        return {
            tenant: {resource: self.usage(tenant, resource) for resource in resources}
            for tenant, resources in sorted(self._seen.items())
        }

    def charge(self, *args, **kwargs):
        """Gone; kept because the frozen end-to-end harness wraps the name."""
        raise TypeError("usage is read off its owners: register a reader with govern()")

    release = charge


class TenantRegistry:
    """Registry of tenants with quota enforcement over a shared ledger.

    The ``default`` tenant is pre-registered with an unlimited quota so
    that pre-tenancy callers keep working unchanged. With
    ``strict=True`` the registry refuses unknown tenant names
    (:class:`~repro.exceptions.TenantAccessError`); the default lenient
    mode auto-registers them with unlimited quotas, matching how the
    reproduction's single-process deployments bootstrap.
    """

    def __init__(self, strict: bool = False):
        self.strict = bool(strict)
        self.ledger = UsageLedger()
        self._tenants: dict[str, Tenant] = {}
        self._denials = telemetry.Counter(
            "repro_tenant_quota_denials_total",
            "Requests denied by quota, by tenant and resource.", telemetry.get_registry(),
        )
        self.register(DEFAULT_TENANT)

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    def register(self, name: str, quota: TenantQuota | None = None) -> Tenant:
        """Register (or re-register, updating the quota; a suspension stays) a tenant."""
        if not name or not isinstance(name, str):
            raise TenantAccessError(str(name), "tenant name must be a non-empty string")
        previous = self._tenants.get(name)
        tenant = Tenant(name=name, quota=quota or TenantQuota())
        tenant.active = previous is None or previous.active
        self._tenants[name] = tenant
        return tenant

    def suspend(self, name: str) -> None:
        """Mark a tenant inactive; subsequent resolves raise a 403 error."""
        self.resolve(name).active = False

    def reinstate(self, name: str) -> None:
        """Re-activate a suspended tenant."""
        tenant = self._tenants.get(name)
        if tenant is None:
            raise TenantAccessError(name, "unknown tenant")
        tenant.active = True

    def authorise(self, name: str) -> None:
        """Raise what :meth:`resolve` would for ``name``, registering nothing."""
        tenant = self._tenants.get(name)
        if tenant is None and self.strict:
            raise TenantAccessError(name, "unknown tenant")
        if tenant is not None and not tenant.active:
            raise TenantAccessError(name, "tenant is suspended")

    def resolve(self, name: str) -> Tenant:
        """Look up ``name``, enforcing strictness and suspension; the
        lenient registry registers a name it does not know."""
        self.authorise(name)
        tenant = self._tenants.get(name)
        return tenant if tenant is not None else self.register(name)

    def tenants(self) -> list[Tenant]:
        """All registered tenants, sorted by name."""
        return [self._tenants[name] for name in sorted(self._tenants)]

    # ------------------------------------------------------------------
    # quota enforcement
    # ------------------------------------------------------------------

    def check(self, name: str, resource: str, amount: float) -> None:
        """Raise :class:`QuotaExceededError` if ``amount`` more would not fit."""
        tenant = self.resolve(name)
        limit = tenant.quota.limit(resource)
        if limit is not None:
            used = self.ledger.usage(name, resource)
            if used + float(amount) > limit:
                self._denials.inc(tenant=name, resource=resource)
                raise QuotaExceededError(name, resource, limit, used, float(amount))

    def usage(self, name: str, resource: str) -> float:
        """Current holding for one tenant/resource pair."""
        return self.ledger.usage(name, resource)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TenantRegistry(tenants={sorted(self._tenants)}, strict={self.strict})"
