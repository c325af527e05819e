"""Ambient tenant identity, propagated with :mod:`contextvars`.

The gateway resolves the tenant once per request and enters
:func:`tenant_context`; deep subsystems (the tuner's epoch loop, the
parameter server's byte accounting) read :func:`current_tenant` to
label metrics and check quotas without every call signature having to
thread a ``tenant`` argument through the stack.
"""

from __future__ import annotations

import contextlib
import contextvars
from typing import Iterator

__all__ = ["DEFAULT_TENANT", "current_tenant", "tenant_context"]

#: Name of the implicit tenant used when a caller does not identify one.
#: Pre-tenancy callers keep working unchanged under this identity.
DEFAULT_TENANT = "default"

_current: contextvars.ContextVar[str] = contextvars.ContextVar(
    "repro_tenant", default=DEFAULT_TENANT
)


def current_tenant() -> str:
    """Return the tenant name of the active request context."""
    return _current.get()


@contextlib.contextmanager
def tenant_context(tenant: str) -> Iterator[str]:
    """Run a block with :func:`current_tenant` bound to ``tenant``."""
    token = _current.set(str(tenant))
    try:
        yield str(tenant)
    finally:
        _current.reset(token)
