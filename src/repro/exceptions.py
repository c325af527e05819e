"""Exception hierarchy for the Rafiki reproduction.

All library errors derive from :class:`RafikiError` so that callers can
catch one base class. Subsystems raise the most specific subclass that
describes the failure.
"""

from __future__ import annotations


class RafikiError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(RafikiError):
    """A user-supplied configuration value is invalid or inconsistent."""


class HyperSpaceError(ConfigurationError):
    """A hyper-parameter space definition is malformed.

    Raised for duplicate knob names, empty domains, unsatisfiable
    ``depends`` declarations (cycles, unknown names), or type mismatches
    between a knob's declared ``dtype`` and its domain.
    """


class ParameterServerError(RafikiError):
    """A parameter-server get/put failed."""


class ParameterNotFoundError(ParameterServerError, KeyError):
    """The requested parameter name (or version) does not exist."""


class StorageError(RafikiError):
    """A data-store operation failed."""


class NotFoundError(StorageError, KeyError):
    """The referenced path, version or chunk does not exist in the store.

    Also raised when a path is deleted *while being read* — readers get
    this instead of a silently truncated blob.
    """


class DatasetNotFoundError(NotFoundError):
    """The named dataset is not present in the data store."""


class ChunkLostError(StorageError):
    """A chunk has no live replica (every holding datanode is down).

    Recoverable: the chunk's bytes may still exist on a dead node's
    disk and be resurrected when that node rejoins, or be re-stored by
    a writer-side :meth:`~repro.data.blockstore.BlockStore.ensure`.
    """


class ClusterError(RafikiError):
    """A cluster-management operation failed."""


class PlacementError(ClusterError):
    """No node has enough free resources to place a container."""


class NodeFailedError(ClusterError):
    """An operation targeted a node that has failed."""


class JobError(RafikiError):
    """A job-level failure (submission, lookup, or lifecycle violation)."""


class JobNotFoundError(JobError, KeyError):
    """The referenced job id is unknown to the manager or gateway."""


class ServingError(RafikiError):
    """An inference-service failure."""


class RequestShedError(ServingError):
    """The serving front end refused a request (admission control).

    Carries the shed ``reason`` (``"fault"``, ``"tenant_rate_limit"``,
    ``"tenant_queue_full"``, ``"queue_full"``, ``"deadline"``,
    ``"dispatch_failed"`` or ``"shutdown"``) and a
    ``retry_after`` hint in seconds — the earliest time at which a
    retry has a chance of being admitted. Gateways translate this into
    HTTP 429 with the hint in the body.
    """

    def __init__(self, reason: str, retry_after: float, detail: str = ""):
        message = f"request shed ({reason}); retry after {retry_after:.3f}s"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.reason = reason
        self.retry_after = float(retry_after)


class TenancyError(RafikiError):
    """Base class for multi-tenant control-plane errors."""


class TenantAccessError(TenancyError):
    """The named tenant is unknown or suspended.

    Gateways translate this into HTTP 403: the request authenticated a
    tenant identity the control plane refuses to serve, as opposed to a
    quota violation (429) which is a temporary resource condition.
    """

    def __init__(self, tenant: str, detail: str = ""):
        message = f"tenant {tenant!r} is not allowed"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.tenant = tenant


class QuotaExceededError(TenancyError):
    """A tenant asked for more of a resource than its quota allows.

    Carries the ``tenant``, the ``resource`` name (``"trials"``,
    ``"replicas"``, ``"ps_bytes"``, ``"store_bytes"``), the configured
    ``limit``, current ``used`` amount and the ``requested`` increment.
    Gateways translate this into HTTP 429: retrying after the tenant
    releases capacity (a job finishing, parameters deleted) can succeed.
    """

    def __init__(
        self,
        tenant: str,
        resource: str,
        limit: float,
        used: float,
        requested: float,
    ):
        super().__init__(
            f"tenant {tenant!r} over quota on {resource}: "
            f"used {used:g} + requested {requested:g} > limit {limit:g}"
        )
        self.tenant = tenant
        self.resource = resource
        self.limit = float(limit)
        self.used = float(used)
        self.requested = float(requested)


class ModelNotFoundError(RafikiError, KeyError):
    """The referenced model name is not registered in the zoo."""


class GatewayError(RafikiError):
    """A REST-gateway request failed (bad route, bad payload)."""


class TelemetryError(RafikiError):
    """A telemetry-registry operation failed (e.g. metric type conflict)."""


class ChaosError(RafikiError):
    """Base class for fault-injection and resilience-policy errors."""


class InjectedFault(ChaosError):
    """A deliberate failure raised by an active :class:`~repro.chaos.FaultPlan`.

    Instrumented call sites treat it exactly like an infrastructure
    failure (a crashed RPC, a dead replica), so resilience code paths
    can be exercised deterministically in tests.
    """


class DroppedResponse(InjectedFault):
    """An injected *drop*: the request was swallowed and never answered.

    Callers cannot tell whether the operation happened; the standard
    remedy is an idempotent retry.
    """


class RetryExhaustedError(ChaosError):
    """A retried operation failed on every allowed attempt."""

    def __init__(self, name: str, attempts: int, last_error: BaseException | None = None):
        super().__init__(
            f"{name or 'operation'} failed after {attempts} attempt(s): {last_error!r}"
        )
        self.name = name
        self.attempts = attempts
        self.last_error = last_error


class SQLError(RafikiError):
    """Base class for the mini SQL engine errors."""


class SQLParseError(SQLError):
    """The SQL text could not be parsed."""


class SQLExecutionError(SQLError):
    """The SQL statement failed during execution (unknown column, UDF error)."""
