"""Tests for the simulated SQS queue service."""

import pytest

from repro.cloud.sqs import MAX_MESSAGE_BYTES, QueueService
from repro.errors import NoSuchQueueError, PayloadTooLargeError


@pytest.fixture
def queues() -> QueueService:
    service = QueueService()
    service.create_queue("results")
    return service


def test_send_and_receive_fifo(queues):
    queues.send_message("results", "first")
    queues.send_message("results", "second")
    received = queues.receive_messages("results", max_messages=10)
    assert [message.body for message in received] == ["first", "second"]


def test_receive_removes_messages(queues):
    queues.send_message("results", "only")
    queues.receive_messages("results")
    assert queues.receive_messages("results") == []


def test_receive_respects_max_messages(queues):
    for index in range(5):
        queues.send_message("results", str(index))
    first_batch = queues.receive_messages("results", max_messages=2)
    assert len(first_batch) == 2
    assert queues.approximate_message_count("results") == 3


def test_receive_rejects_nonpositive_max(queues):
    with pytest.raises(ValueError):
        queues.receive_messages("results", max_messages=0)


def test_json_roundtrip(queues):
    queues.send_json("results", {"worker": 3, "status": "ok"})
    message = queues.receive_messages("results")[0]
    assert message.json() == {"worker": 3, "status": "ok"}


def test_missing_queue_raises(queues):
    with pytest.raises(NoSuchQueueError):
        queues.send_message("nope", "x")
    with pytest.raises(NoSuchQueueError):
        queues.receive_messages("nope")


def test_create_queue_idempotent(queues):
    queues.send_message("results", "keep")
    queues.create_queue("results")
    assert queues.approximate_message_count("results") == 1


def test_purge_queue(queues):
    queues.send_message("results", "x")
    queues.purge_queue("results")
    assert queues.approximate_message_count("results") == 0


def test_delete_queue(queues):
    queues.delete_queue("results")
    assert "results" not in queues.list_queues()


def test_message_too_large_rejected(queues):
    with pytest.raises(PayloadTooLargeError):
        queues.send_message("results", "x" * (MAX_MESSAGE_BYTES + 1))


def test_message_size_is_measured_and_reported_in_bytes(queues):
    """The limit is on bytes: 100 000 three-byte characters do not fit, and
    the error says how many bytes they are (it used to say 100 000)."""
    with pytest.raises(PayloadTooLargeError, match="message of 300000 bytes"):
        queues.send_message("results", "€" * 100_000)
    queues.send_message("results", "€" * (MAX_MESSAGE_BYTES // 3))
    queues.send_message("results", "x" * MAX_MESSAGE_BYTES)


def test_message_ids_are_unique_and_increasing(queues):
    first = queues.send_message("results", "a")
    second = queues.send_message("results", "b")
    assert second.message_id > first.message_id


def test_requests_are_metered(queues):
    queues.send_message("results", "a")
    queues.receive_messages("results")
    assert queues.ledger.total("sqs", "requests") == 2
