"""Tests for the simulated DynamoDB key-value store."""

import pytest

from repro.cloud.dynamodb import KeyValueStore
from repro.errors import ConditionalCheckFailedError, NoSuchTableError


@pytest.fixture
def kv() -> KeyValueStore:
    store = KeyValueStore()
    store.create_table("state")
    return store


def test_put_and_get(kv):
    kv.put_item("state", "worker-1", {"status": "running"})
    assert kv.get_item("state", "worker-1") == {"status": "running"}


def test_get_missing_returns_none(kv):
    assert kv.get_item("state", "missing") is None


def test_missing_table_raises(kv):
    with pytest.raises(NoSuchTableError):
        kv.get_item("nope", "a")


def test_put_overwrites(kv):
    kv.put_item("state", "k", {"v": 1})
    kv.put_item("state", "k", {"v": 2})
    assert kv.get_item("state", "k") == {"v": 2}


def test_conditional_put_fails_if_exists(kv):
    kv.put_item("state", "leader", {"id": 1}, if_not_exists=True)
    with pytest.raises(ConditionalCheckFailedError):
        kv.put_item("state", "leader", {"id": 2}, if_not_exists=True)
    assert kv.get_item("state", "leader") == {"id": 1}


def test_get_returns_copy(kv):
    kv.put_item("state", "a", {"v": [1, 2]})
    item = kv.get_item("state", "a")
    item["v"].append(3)
    assert kv.get_item("state", "a") == {"v": [1, 2]}


def test_item_too_large_rejected(kv):
    with pytest.raises(ValueError):
        kv.put_item("state", "big", {"blob": "x" * 500_000})


def test_create_table_idempotent(kv):
    kv.put_item("state", "a", {"v": 1})
    kv.create_table("state")
    assert kv.get_item("state", "a") == {"v": 1}


def test_requests_are_metered(kv):
    kv.put_item("state", "a", {"v": 1})
    kv.get_item("state", "a")
    assert kv.ledger.total("dynamodb", "write_units") == 1
    assert kv.ledger.total("dynamodb", "read_units") == 1
