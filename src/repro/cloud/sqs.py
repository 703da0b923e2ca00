"""SQS-like message queue service.

Lambada's driver communicates with the serverless workers through a result
queue: each worker posts a success or error message when it finishes, and the
driver polls until it has heard from all workers (paper §3.3).  The simulated
service supports multiple named queues, FIFO delivery, visibility-timeout-free
receive (sufficient for the single-consumer driver), and request metering.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

from repro.cloud.clock import VirtualClock
from repro.cloud.metering import MeteringLedger
from repro.errors import NoSuchQueueError, PayloadTooLargeError

#: Maximum SQS message size (256 KiB on AWS).
MAX_MESSAGE_BYTES = 256 * 1024


@dataclass(frozen=True)
class Message:
    """A message delivered from a queue."""

    body: str
    sent_at: float
    message_id: int

    def json(self) -> Any:
        """Decode the body as JSON."""
        return json.loads(self.body)


class QueueService:
    """A minimal message-queue service with named queues."""

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        ledger: Optional[MeteringLedger] = None,
    ):
        self.clock = clock or VirtualClock()
        self.ledger = ledger if ledger is not None else MeteringLedger()
        self._queues: Dict[str, Deque[Message]] = {}
        self._next_id = 0
        self._lock = threading.RLock()
        #: Optional fault-injection plan (see :mod:`repro.cloud.faults`).
        self.fault_plan = None

    # -- queue management ----------------------------------------------------

    def create_queue(self, name: str) -> None:
        """Create a queue; creating an existing queue is a no-op (as on SQS)."""
        with self._lock:
            self._queues.setdefault(name, deque())

    def delete_queue(self, name: str) -> None:
        """Delete a queue and all pending messages."""
        with self._lock:
            self._require_queue(name)
            del self._queues[name]

    def purge_queue(self, name: str) -> None:
        """Drop all pending messages from a queue."""
        with self._lock:
            self._require_queue(name)
            self._queues[name].clear()

    def list_queues(self) -> List[str]:
        """Names of all queues."""
        with self._lock:
            return sorted(self._queues)

    def _require_queue(self, name: str) -> None:
        if name not in self._queues:
            raise NoSuchQueueError(name)

    # -- messaging -----------------------------------------------------------

    def send_message(self, queue: str, body: str) -> Message:
        """Append a message to a queue and return it."""
        # An ASCII body is as many bytes as characters: no copy just to count.
        size = len(body) if body.isascii() else len(body.encode("utf-8"))
        if size > MAX_MESSAGE_BYTES:
            raise PayloadTooLargeError(
                f"message of {size} bytes exceeds the {MAX_MESSAGE_BYTES} limit"
            )
        with self._lock:
            self._require_queue(queue)
            message = Message(body=body, sent_at=self.clock.now, message_id=self._next_id)
            self._next_id += 1
            self._queues[queue].append(message)
            self.ledger.record("sqs", "requests", 1, self.clock.now)
            return message

    def send_json(self, queue: str, payload: Any) -> Message:
        """Serialize ``payload`` as JSON and send it."""
        return self.send_message(queue, json.dumps(payload))

    def receive_messages(self, queue: str, max_messages: int = 10) -> List[Message]:
        """Remove and return up to ``max_messages`` messages (FIFO order).

        An empty list means the queue is currently empty; the driver polls in
        a loop exactly as against the real service.
        """
        if max_messages < 1:
            raise ValueError("max_messages must be at least 1")
        with self._lock:
            self._require_queue(queue)
            self.ledger.record("sqs", "requests", 1, self.clock.now)
            received: List[Message] = []
            redeliver: List[Message] = []
            plan = self.fault_plan
            while self._queues[queue] and len(received) < max_messages:
                message = self._queues[queue].popleft()
                if plan is not None and plan.sqs_delay(queue):
                    # Injected visibility delay: skipped this receive, back of
                    # the queue for a later poll.
                    redeliver.append(message)
                    continue
                delivered = message
                if plan is not None and plan.sqs_corrupt(queue):
                    # Injected payload corruption: the delivered copy has one
                    # character rewritten; the stored message stays intact, so
                    # a later redelivery serves the clean body.
                    delivered = Message(
                        body=plan.corrupt_text(message.body),
                        sent_at=message.sent_at,
                        message_id=message.message_id,
                    )
                received.append(delivered)
                if plan is not None and plan.sqs_duplicate(queue):
                    # Injected at-least-once duplicate: delivered again later.
                    redeliver.append(message)
            self._queues[queue].extend(redeliver)
            return received

    def approximate_message_count(self, queue: str) -> int:
        """Number of messages currently waiting in the queue."""
        with self._lock:
            self._require_queue(queue)
            return len(self._queues[queue])
