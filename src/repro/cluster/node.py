"""Physical nodes of the simulated cluster."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import ClusterError, NodeFailedError

__all__ = ["Node", "Resources"]


@dataclass(frozen=True)
class Resources:
    """A resource bundle (the paper's nodes: 1 CPU, 3 GPUs, 64 GB)."""

    cpus: float = 1.0
    gpus: float = 0.0
    memory_gb: float = 1.0

    def fits_within(self, other: "Resources") -> bool:
        return (
            self.cpus <= other.cpus + 1e-9
            and self.gpus <= other.gpus + 1e-9
            and self.memory_gb <= other.memory_gb + 1e-9
        )

    def __add__(self, other: "Resources") -> "Resources":
        return Resources(
            self.cpus + other.cpus, self.gpus + other.gpus, self.memory_gb + other.memory_gb
        )

    def __sub__(self, other: "Resources") -> "Resources":
        return Resources(
            self.cpus - other.cpus, self.gpus - other.gpus, self.memory_gb - other.memory_gb
        )


@dataclass
class Node:
    """One physical machine hosting containers."""

    name: str
    capacity: Resources = field(default_factory=lambda: Resources(cpus=6, gpus=3, memory_gb=64))
    alive: bool = True
    container_ids: set[str] = field(default_factory=set)
    allocated: Resources = field(default_factory=Resources)

    def __post_init__(self):
        if not self.container_ids:
            self.allocated = Resources(0, 0, 0)

    @property
    def free(self) -> Resources:
        return self.capacity - self.allocated

    def can_host(self, request: Resources) -> bool:
        return self.alive and request.fits_within(self.free)

    def allocate(self, container_id: str, request: Resources) -> None:
        if not self.alive:
            raise NodeFailedError(self.name)
        if not request.fits_within(self.free):
            raise ClusterError(
                f"node {self.name!r} cannot host {request} (free: {self.free})"
            )
        self.container_ids.add(container_id)
        self.allocated = self.allocated + request

    def release(self, container_id: str, request: Resources) -> None:
        if container_id in self.container_ids:
            self.container_ids.discard(container_id)
            self.allocated = self.allocated - request

    def fail(self) -> set[str]:
        """Mark the node failed; return the ids of the containers it hosted."""
        self.alive = False
        lost = set(self.container_ids)
        self.container_ids.clear()
        self.allocated = Resources(0, 0, 0)
        return lost

    def recover(self) -> None:
        """Bring a failed node back (empty of containers)."""
        self.alive = True
