"""Master/worker message protocol.

The message kinds mirror Algorithm 1 and 2 of the paper: workers send
``kRequest`` to ask for a trial, ``kReport`` to report validation
performance, ``kFinish`` when a trial ends; the master replies with a
trial assignment, ``kPut`` (persist your parameters to the parameter
server) or ``kStop`` (early-stop the current trial).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any

__all__ = ["MessageType", "Message", "Mailbox"]


class MessageType(enum.Enum):
    """Protocol message kinds (named after the paper's constants)."""

    REQUEST = "kRequest"
    REPORT = "kReport"
    FINISH = "kFinish"
    PUT = "kPut"
    STOP = "kStop"
    TRIAL = "kTrial"
    SHUTDOWN = "kShutdown"


@dataclass
class Message:
    """A single protocol message."""

    type: MessageType
    sender: str
    payload: dict[str, Any] = field(default_factory=dict)


class Mailbox:
    """A FIFO message queue with per-sender fairness preserved by arrival order."""

    def __init__(self):
        self._queue: deque[Message] = deque()

    def send(self, message: Message) -> None:
        self._queue.append(message)

    def receive(self) -> Message | None:
        """Pop the oldest message, or ``None`` when empty."""
        if not self._queue:
            return None
        return self._queue.popleft()

    def __bool__(self) -> bool:
        return bool(self._queue)
