"""Multi-tenant control plane: identities and quotas.

Rafiki is an analytics *service*: many customers share one cluster
(PAPER.md §1, §3). This package gives every request an owner. The
:class:`TenantRegistry` holds per-tenant quotas over four governed
resources (concurrent trials, serving replicas, parameter-server bytes,
data-store bytes), read by a :class:`UsageLedger` off the owners'
records; the ambient :func:`current_tenant` context lets deep
subsystems label telemetry and check quotas without threading a
``tenant`` argument everywhere. The cluster manager places queued jobs
in max-min fair order over each tenant's dominant-resource share, and
the serving front end layers per-tenant token buckets over its
per-client ones.
"""

from repro.exceptions import QuotaExceededError, TenantAccessError
from repro.tenancy.context import DEFAULT_TENANT, current_tenant, tenant_context
from repro.tenancy.registry import Tenant, TenantQuota, TenantRegistry, UsageLedger

__all__ = [
    "DEFAULT_TENANT",
    "QuotaExceededError",
    "Tenant",
    "TenantAccessError",
    "TenantQuota",
    "TenantRegistry",
    "UsageLedger",
    "current_tenant",
    "tenant_context",
]
