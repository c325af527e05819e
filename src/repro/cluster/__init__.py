"""Simulated cluster management (Section 6.1 and 6.3).

Stands in for Kubernetes + Docker: nodes host containers, the manager
places masters/workers (preferring to co-locate a job's master and
workers on one node, as the paper does to avoid network overhead),
stateless workers are recovered by restarting containers, and masters
recover from small checkpointed state.
"""

from repro.cluster.checkpoint import CheckpointStore
from repro.cluster.container import Container, ContainerState
from repro.cluster.manager import ClusterManager, JobRecord
from repro.cluster.message import Mailbox, Message, MessageType
from repro.cluster.node import Node

__all__ = [
    "Node",
    "Container",
    "ContainerState",
    "ClusterManager",
    "JobRecord",
    "Mailbox",
    "Message",
    "MessageType",
    "CheckpointStore",
]
