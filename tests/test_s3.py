"""Tests for the simulated S3 object store."""

import pytest

from repro.cloud.s3 import ObjectStore, parse_s3_path
from repro.errors import (
    BucketAlreadyExistsError,
    InvalidRangeError,
    KeyTooLongError,
    NoSuchBucketError,
    NoSuchKeyError,
    SlowDownError,
)


@pytest.fixture
def store() -> ObjectStore:
    store = ObjectStore()
    store.create_bucket("data")
    return store


def test_parse_s3_path():
    assert parse_s3_path("s3://bucket/some/key") == ("bucket", "some/key")


def test_parse_s3_path_bucket_only():
    assert parse_s3_path("s3://bucket") == ("bucket", "")


def test_parse_s3_path_rejects_non_s3():
    with pytest.raises(ValueError):
        parse_s3_path("/local/path")


def test_put_and_get_roundtrip(store):
    store.put_object("data", "a", b"hello world")
    assert store.get_object("data", "a").data == b"hello world"


def test_get_range(store):
    store.put_object("data", "a", b"0123456789")
    result = store.get_object("data", "a", 2, 5)
    assert result.data == b"234"
    assert result.range_start == 2
    assert result.range_end == 5


def test_get_range_open_ended(store):
    store.put_object("data", "a", b"0123456789")
    assert store.get_object("data", "a", 7).data == b"789"


def test_get_range_clamped_to_object_size(store):
    store.put_object("data", "a", b"0123")
    assert store.get_object("data", "a", 2, 100).data == b"23"


def test_get_range_beyond_object_raises(store):
    store.put_object("data", "a", b"0123")
    with pytest.raises(InvalidRangeError):
        store.get_object("data", "a", 10, 20)


def test_get_missing_key_raises(store):
    with pytest.raises(NoSuchKeyError):
        store.get_object("data", "missing")


def test_missing_bucket_raises():
    store = ObjectStore()
    with pytest.raises(NoSuchBucketError):
        store.get_object("nope", "a")


def test_create_existing_bucket_raises(store):
    with pytest.raises(BucketAlreadyExistsError):
        store.create_bucket("data")


def test_ensure_bucket_is_idempotent(store):
    store.ensure_bucket("data")
    store.ensure_bucket("other")
    assert "other" in store.list_buckets()


def test_overwrite_replaces_object(store):
    store.put_object("data", "a", b"one")
    store.put_object("data", "a", b"two")
    assert store.get_object("data", "a").data == b"two"
    assert store.object_count("data") == 1


def test_head_returns_size_without_data(store):
    store.put_object("data", "a", b"abcdef")
    meta = store.head_object("data", "a")
    assert meta.size == 6
    assert meta.path == "s3://data/a"


def test_object_exists(store):
    store.put_object("data", "a", b"x")
    assert store.object_exists("data", "a")
    assert not store.object_exists("data", "b")


def test_list_objects_with_prefix(store):
    store.put_object("data", "dir/a", b"1")
    store.put_object("data", "dir/b", b"2")
    store.put_object("data", "other/c", b"3")
    keys = [meta.key for meta in store.list_objects("data", "dir/")]
    assert keys == ["dir/a", "dir/b"]


def test_delete_object_and_missing_delete_is_noop(store):
    store.put_object("data", "a", b"x")
    store.delete_object("data", "a")
    store.delete_object("data", "a")
    assert not store.object_exists("data", "a")


def test_delete_bucket(store):
    store.put_object("data", "a", b"x")
    store.delete_bucket("data")
    assert "data" not in store.list_buckets()


def test_path_based_api_creates_bucket():
    store = ObjectStore()
    store.put_path("s3://auto/key", b"payload")
    assert store.get_path("s3://auto/key").data == b"payload"


def test_glob_matches_suffix(store):
    store.put_object("data", "t/part-0.lpq", b"a")
    store.put_object("data", "t/part-1.lpq", b"b")
    store.put_object("data", "t/readme.txt", b"c")
    assert store.glob("s3://data/t/*.lpq") == [
        "s3://data/t/part-0.lpq",
        "s3://data/t/part-1.lpq",
    ]


def test_glob_without_wildcard_checks_existence(store):
    store.put_object("data", "a", b"x")
    assert store.glob("s3://data/a") == ["s3://data/a"]
    assert store.glob("s3://data/b") == []


def test_request_counters(store):
    store.put_object("data", "a", b"x")
    store.get_object("data", "a")
    store.get_object("data", "a")
    store.list_objects("data")
    counts = store.request_counts["data"]
    assert counts["put"] == 1
    assert counts["get"] == 2
    assert counts["list"] == 1


def test_ledger_records_requests_and_bytes(store):
    store.put_object("data", "a", b"x" * 100)
    store.get_object("data", "a")
    assert store.ledger.total("s3", "put_requests") == 1
    assert store.ledger.total("s3", "get_requests") == 1
    assert store.ledger.total("s3", "bytes_written") == 100
    assert store.ledger.total("s3", "bytes_read") == 100


def test_total_bytes_and_object_count(store):
    store.put_object("data", "a", b"xxx")
    store.put_object("data", "b", b"yy")
    assert store.total_bytes("data") == 5
    assert store.object_count() == 2


def test_rate_limit_throttles_reads():
    store = ObjectStore(enforce_rate_limits=True, read_rate_limit_per_s=5)
    store.create_bucket("data")
    store.put_object("data", "a", b"x")
    with pytest.raises(SlowDownError):
        for _ in range(10):
            store.get_object("data", "a")


def test_rate_limit_window_resets_with_clock():
    store = ObjectStore(enforce_rate_limits=True, read_rate_limit_per_s=5)
    store.create_bucket("data")
    store.put_object("data", "a", b"x")
    for _ in range(5):
        store.get_object("data", "a")
    store.clock.advance(1.5)
    # After the window has passed, requests are allowed again.
    store.get_object("data", "a")


def test_put_rejects_non_bytes(store):
    with pytest.raises(TypeError):
        store.put_object("data", "a", "not bytes")  # type: ignore[arg-type]


def test_put_rejects_keys_over_the_limit_in_utf8_bytes(store):
    store.put_object("data", "é" * 512, b"x")  # 1024 bytes: the limit
    with pytest.raises(KeyTooLongError):
        store.put_object("data", "é" * 512 + "a", b"x")
    assert store.object_count("data") == 1
    assert store.ledger.total("s3", "put_requests") == 1
