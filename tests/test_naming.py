"""Tests for the combined-object naming scheme."""

import pytest

from repro.cloud.s3 import ObjectStore
from repro.errors import KeyTooLongError
from repro.exchange.naming import WriteCombiningNaming


def test_write_combining_key_length_limit():
    """The S3 key limit is the store's: a combined object whose key is over
    1024 bytes is refused like S3's ``KeyTooLongError``, one at the limit is
    stored."""
    store = ObjectStore()
    at_limit = WriteCombiningNaming(bucket="wc", prefix="p" * (1024 - len("sender-1")))
    store.put_path(at_limit.path(1, 0), b"x")
    over = WriteCombiningNaming(bucket="wc", prefix="p" * (1025 - len("sender-1")))
    with pytest.raises(KeyTooLongError):
        store.put_path(over.path(1, 0), b"x")
    assert store.object_count("wc") == 1


def test_write_combining_multi_bucket_by_sender():
    naming = WriteCombiningNaming(bucket="wc", num_buckets=3)
    assert naming.bucket_for(0) == "wc-0"
    assert naming.bucket_for(4) == "wc-1"
    assert len(naming.buckets()) == 3


def test_multi_bucket_rejects_zero_buckets():
    with pytest.raises(ValueError):
        WriteCombiningNaming(num_buckets=0)


def test_write_combining_path_ignores_the_receiver():
    naming = WriteCombiningNaming(bucket="wc", prefix="r1/g2/", num_buckets=3)
    assert {naming.path(4, receiver) for receiver in range(5)} == {"s3://wc-1/r1/g2/sender-4"}
