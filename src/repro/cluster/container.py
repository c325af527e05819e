"""Docker-container stand-ins."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cluster.node import Resources

__all__ = ["Container", "ContainerState", "ContainerRole"]


class ContainerState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    STOPPED = "stopped"
    FAILED = "failed"


class ContainerRole(enum.Enum):
    """What a container runs (Figure 7's box kinds)."""

    MASTER = "master"
    WORKER = "worker"
    DATA = "data"
    PARAMETER = "parameter"


@dataclass
class Container:
    """One container: an image (code bundle) plus a resource request.

    The :class:`~repro.cluster.manager.ClusterManager` that creates it
    names it (``ctr-N``, unique within that manager).
    """

    container_id: str
    image: str
    role: ContainerRole
    job_id: str
    request: Resources = field(default_factory=lambda: Resources(cpus=1, gpus=1, memory_gb=8))
    node_name: str | None = None
    state: ContainerState = ContainerState.PENDING
    restarts: int = 0
    #: container this one replaced after a node failure — lets recovery
    #: hooks hand the replacement its predecessor's in-flight work.
    predecessor: str | None = None

    @property
    def running(self) -> bool:
        return self.state is ContainerState.RUNNING
